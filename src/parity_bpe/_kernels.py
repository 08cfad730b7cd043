"""The hot kernels of training and encoding.

Pair counting is positional (overlapping adjacencies each count), merge
replacement is leftmost-first and non-overlapping (one training call per
merge), and encoding repeatedly applies the lowest-ranked merge present.

A trainer word is a str with one code point per token, its id plus
``CODE_OFFSET``, and a pair's key the str of its two codes, so a merge tests
and rewrites words with C-level str operations. The bytes are U+0100-U+01FF,
so a word is two bytes per token from its build on and never widens.

Encoding a pre-token of ``n`` ids takes O(n log n) in one of two regimes,
chosen by its length. Below ``LONG_PRETOKEN`` ids (the dictionary words
that nearly all text is made of) a min-heap holds one key per adjacent pair
in the table, ordered by rank and then position, so each merge costs a few
heap operations instead of a rescan (as in tiktoken's ``_byte_pair_merge``
and Hugging Face ``Word::merge_all``; van Antwerpen and Neubeck 2024 give
linear-time variants). From ``LONG_PRETOKEN`` ids on (text written without
spaces arrives as one such pre-token) each rank present keeps a list of its
positions, and only the ranks go through a heap: see ``encode_long_ids``.
Rank lists cost about 1.3x the heap's time on the 2-5 byte pre-tokens of
the ``train-5lang`` dev and ``encode-zipf`` inputs, and 0.50-0.84x of it at
8.7 KB (the table in ``encode_long_ids``), hence the split. A plain-loop
rescan was 6-19% faster than the heap on those words, 12-19% slower on
8-byte ones and 77-83% slower on ~42-byte random pre-tokens; it would be a
third path, so it is not taken.

Both regimes apply a rank's occurrences left to right and take a pair that
a merge makes only on a later pass: a merge whose result has an earlier
canonical id can make a pair of lower rank than the one being applied, and
it waits until every occurrence of the current rank is merged, as a rescan
would find it only on its next pass. With a model's table a merge never
makes a pair of its own rank (the merged bytes are longer than either
operand's), so one pass of the rank lists meets every occurrence of its
rank, and a pair made below it waits in its own list, as in the heap.

Callers reach these through the module (``_kernels.encode_ids(...)``): the
benchmark's tracer wraps them by their dotted names.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush

CODE_OFFSET = 256
BYTE_CODES = {i: i + CODE_OFFSET for i in range(256)}  # ``str.translate`` of latin-1 text
MAX_TOKEN_ID = 0x10FFFF - CODE_OFFSET  # the largest id a code point can carry
LONG_PRETOKEN = 1024  # ids from which encode_ids keeps rank buckets, not a heap


def token_codes(ids) -> str:
    """The code str of a token-id sequence: a word, or a pair's key."""
    return "".join([chr(i + CODE_OFFSET) for i in ids])


def token_ids(codes: str) -> tuple[int, ...]:
    """The token ids of a code str."""
    return tuple([ord(code) - CODE_OFFSET for code in codes])


def count_pairs(tokens) -> dict:
    """Positional counts of adjacent token-id pairs in one word."""
    return Counter(zip(tokens, tokens[1:]))


def merge_and_deltas(store, listed, a: int, b: int, c: int):
    """Replace (a, b) with c in the ``listed`` words of a trainer ``_WordStore``.

    ``pair in word`` tests a word and ``word.split(pair)`` cuts it at each
    occurrence, leftmost-first and non-overlapping; joined by c, the pieces
    are the new word. The pairs beside each replacement are read off the ends
    of the pieces, one between two replacements once: the word loses (x, a)
    and (b, y) and gains (x, c) and (c, y), ±count to the delta table of each
    language its training entries name, and is listed under each key it
    gains (even one it also loses): an empty slot becomes the bare id, a bare
    id of another word a list of both, and a list gains the id unless it ends
    with it. Returns ``(changed, rewritten, repl, dev_repl)``: the delta
    tables by pair key, without (a, b) and where a delta may be 0; the number
    of words rewritten; and the per-language training and dev replacements.
    """
    n_langs = store.n_langs
    repl, dev_repl = [0] * n_langs, [0] * n_langs
    changed = [{} for _ in range(n_langs)]
    words, counts, dev_counts, index = store.words, store.counts, store.dev_counts, store.index
    index_get = index.get
    ca, cb, cc = chr(a + CODE_OFFSET), chr(b + CODE_OFFSET), chr(c + CODE_OFFSET)
    pair = ca + cb
    join = cc.join
    rewritten = 0
    for wid in listed:
        word = words[wid]
        if pair not in word:
            continue
        pieces = word.split(pair)
        words[wid] = join(pieces)
        rewritten += 1
        n_rep = len(pieces) - 1
        if pieces[0]:
            x = pieces[0][-1]
            lost, gained = [x + ca], [x + cc]
        else:
            lost, gained = [], []
        for piece in pieces[1:-1]:  # between two replacements
            if piece:
                y, x = piece[0], piece[-1]
                lost += (cb + y, x + ca)
                gained += (cc + y, x + cc)
            else:
                lost.append(cb + ca)
                gained.append(cc + cc)
        if pieces[-1]:
            y = pieces[-1][0]
            lost.append(cb + y)
            gained.append(cc + y)
        for key in gained:
            slot = index_get(key)
            if slot is None:
                index[key] = wid
            elif type(slot) is int:
                if slot != wid:
                    index[key] = [slot, wid]
            elif slot[-1] != wid:
                slot.append(wid)
        for li, cnt in counts[wid]:
            repl[li] += n_rep * cnt
            table = changed[li]
            get = table.get
            for key in lost:
                table[key] = get(key, 0) - cnt
            for key in gained:
                table[key] = get(key, 0) + cnt
        if dev_counts is not None:
            for li, cnt in dev_counts[wid]:
                dev_repl[li] += n_rep * cnt
    # With a == b, as in "aaa", a replacement's neighbours count (a, b) too.
    for table in changed:
        table.pop(pair, None)
    return changed, rewritten, repl, dev_repl


def encode_ids(ids, table: dict) -> list:
    """Tokenize one pre-token's id sequence (its bytes, say) against a merge table.

    ``table`` maps an adjacent id pair to ``(rank, merged_id)``. The lowest
    rank present in the sequence is applied to all of its occurrences
    (leftmost-first, non-overlapping) until no pair is in the table.

    A pre-token of ``LONG_PRETOKEN`` ids or more goes to
    ``encode_long_ids``, which gives the same ids in 0.50-0.84x the heap's
    time at 8.7 KB but takes about 1.3x it on dictionary words. Below that,
    keys are ``rank * n + position`` of a pair's left symbol in one min-heap.
    Symbols stay at their input positions; a merged-away right symbol becomes
    ``None``, and neighbours are found by stepping over those holes (at most
    one fewer than the bytes of the token beside them). A popped key is
    stale, and skipped, unless the pair now at its position still has its
    rank. A pair a merge makes at or below the rank being applied is held in
    ``pending`` until that rank's keys run out.
    """
    if len(ids) >= LONG_PRETOKEN:
        return encode_long_ids(ids, table)
    seq = list(ids)
    n = len(seq)
    get = table.get
    heap = []
    for i in range(n - 1):
        entry = get((seq[i], seq[i + 1]))
        if entry is not None:
            heap.append(entry[0] * n + i)
    heapify(heap)
    seq.append(-1)  # sentinel: the hole walks to the right stop at n
    pending = []  # keys of pairs ranked below the merge being applied
    rank = -1
    while True:
        if pending and (not heap or heap[0] // n != rank):
            for key in pending:
                heappush(heap, key)
            pending = []
        if not heap:
            break
        key = heappop(heap)
        i = key % n
        left = seq[i]
        if left is None:
            continue
        j = i + 1
        while seq[j] is None:
            j += 1
        if j == n:
            continue
        entry = get((left, seq[j]))
        if entry is None or entry[0] * n + i != key:
            continue
        rank, new = entry
        seq[i] = new
        seq[j] = None
        h = i - 1
        while h >= 0 and seq[h] is None:
            h -= 1
        if h >= 0:
            entry = get((seq[h], new))
            if entry is not None:
                if entry[0] > rank:
                    heappush(heap, entry[0] * n + h)
                else:
                    pending.append(entry[0] * n + h)
        k = j + 1
        while seq[k] is None:
            k += 1
        if k < n:
            entry = get((new, seq[k]))
            if entry is not None:
                if entry[0] > rank:
                    heappush(heap, entry[0] * n + i)
                else:
                    pending.append(entry[0] * n + i)
    seq.pop()
    # Not copied to an exact size: the word cache charges a result's
    # ``sys.getsizeof``, spare capacity included, to its byte budget.
    return [t for t in seq if t is not None]


def encode_long_ids(ids, table: dict) -> list:
    """``encode_ids`` for a pre-token of ``LONG_PRETOKEN`` ids or more.

    ``buckets`` maps each rank present to the positions of its pairs, and
    ``ranks`` is a min-heap of its keys: per merge, a list append in place
    of a push and a pop on a heap of every pair. A pass takes the lowest
    rank's list off, sorts it and applies its pairs left to right, with
    ``encode_ids``' hole-skipping and staleness checks. Each pair a merge
    makes is appended to its rank's list, or starts one. The list of the
    rank being applied is already off, and every lower rank's is empty, so
    a pair made at or below that rank is applied on a later pass, which is
    ``encode_ids``' pending rule. With a model's table a merge never makes
    a pair of its own rank (the merged bytes are longer than either
    operand's), so the pass sees all of that rank's pairs. The sort puts in
    order positions added by different passes; with a model's table equal
    byte spans merge in step and it finds them in order, but a table that
    gives one id to two byte strings needs it.

    Time against the heap, each input timed interleaved with the 2000-merge
    parity model of ``train-5lang``, seed 1 (median of 12 inputs, two
    rounds, CPython 3.11 on a shared 2-vCPU VM):

    ======================================  =====  =====  =====  ======
    input                                   1 KB   2 KB   4 KB   8.7 KB
    ======================================  =====  =====  =====  ======
    dev words of all five languages, glued  0.91   0.83   0.73   0.67
    ``l0`` dev text, its spaces removed     0.65   0.59   0.53   0.50
    random ``l0`` letters                   0.65   0.58   0.53   0.50
    random letters of all five alphabets    0.98   0.95   0.91   0.84
    ======================================  =====  =====  =====  ======

    Fewer merges apply to mixed-alphabet text, so the heap has less to
    save there: at 1 KB of random letters of all five alphabets the two
    take about the same time, the closest the rank lists come to losing
    from ``LONG_PRETOKEN`` on.
    """
    seq = list(ids)
    n = len(seq)
    get = table.get
    buckets = {}  # rank -> positions of the pairs with that rank
    for i, entry in enumerate(map(get, zip(seq, seq[1:]))):
        if entry is not None:
            bucket = buckets.get(entry[0])
            if bucket is None:
                buckets[entry[0]] = [i]
            else:
                bucket.append(i)
    ranks = list(buckets)
    heapify(ranks)
    seq.append(-1)  # sentinel: the hole walks to the right stop at n
    while ranks:
        rank = heappop(ranks)
        positions = buckets.pop(rank)
        positions.sort()
        for i in positions:
            left = seq[i]
            if left is None:
                continue
            j = i + 1
            while seq[j] is None:
                j += 1
            if j == n:
                continue
            entry = get((left, seq[j]))
            if entry is None or entry[0] != rank:
                continue
            new = entry[1]
            seq[i] = new
            seq[j] = None
            h = i - 1
            while h >= 0 and seq[h] is None:
                h -= 1
            if h >= 0:
                entry = get((seq[h], new))
                if entry is not None:
                    bucket = buckets.get(entry[0])
                    if bucket is None:
                        buckets[entry[0]] = [h]
                        heappush(ranks, entry[0])
                    else:
                        bucket.append(h)
            k = j + 1
            while seq[k] is None:
                k += 1
            if k < n:
                entry = get((new, seq[k]))
                if entry is not None:
                    bucket = buckets.get(entry[0])
                    if bucket is None:
                        buckets[entry[0]] = [i]
                        heappush(ranks, entry[0])
                    else:
                        bucket.append(i)
    seq.pop()
    return [t for t in seq if t is not None]
