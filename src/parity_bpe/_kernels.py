"""The hot kernels of training and encoding.

Pair counting is positional (overlapping adjacencies each count), merge
replacement is leftmost-first and non-overlapping (one training call per
merge), and encoding repeatedly applies the lowest-ranked merge present.

Encoding a pre-token of ``n`` ids takes O(n log n) here: a min-heap holds
one key per adjacent pair in the table, ordered by rank and then position,
so each merge costs a few heap operations instead of a rescan of the whole
pre-token (the approach of tiktoken's ``_byte_pair_merge`` and Hugging Face
``Word::merge_all``; van Antwerpen and Neubeck 2024 give linear-time
variants). The queue serves every length; on the 3-6 ids of a dictionary
word it is about a microsecond slower than a rescan, a cost the word cache
pays once per distinct word.

A merge whose result has an earlier canonical id can create a pair of lower
rank than the one being applied; such a pair waits until every occurrence
of the current rank is merged, exactly as a rescan would find it only on
its next pass.

Callers reach these through the module (``_kernels.encode_ids(...)``): the
benchmark's tracer wraps them by their dotted names.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush


def count_pairs(tokens) -> dict:
    """Positional counts of adjacent token-id pairs in one word."""
    return Counter(zip(tokens, tokens[1:]))


def merge_and_deltas(store, listed, a: int, b: int, c: int):
    """Replace (a, b) with c in the ``listed`` words of a trainer ``_WordStore``.

    A word without an occurrence keeps its tuple. Only the pairs beside a
    replacement are counted, a pair between two replacements once, and a
    word is listed under each pair it gains: an empty index slot becomes the
    bare id, a bare id of another word becomes a list of both, and a list
    gains the id unless it ends with it. Returns ``(changed, rewritten,
    repl, dev_repl)``: one dict per language of the training count deltas of
    the changed pairs but (a, b), the number of words rewritten, and the
    per-language training and dev replacements. A word's deltas go only to
    the dicts of the languages its training entries name, so a one-language
    word touches one dict; a delta may be 0 where two words cancel.
    """
    n_langs = store.n_langs
    repl, dev_repl = [0] * n_langs, [0] * n_langs
    changed = [{} for _ in range(n_langs)]
    words, counts, dev_counts, index = store.words, store.counts, store.dev_counts, store.index
    rewritten = 0
    for wid in listed:
        tokens = words[wid]
        if a not in tokens or b not in tokens:
            continue
        n = len(tokens)
        out = []
        deltas: dict = {}
        get = deltas.get
        prev = -2  # input position of the previous replacement
        i = 0
        while i < n:
            t = tokens[i]
            if t != a or i + 1 == n or tokens[i + 1] != b:
                out.append(t)
                i += 1
                continue
            out.append(c)
            if i and prev != i - 2:
                x = tokens[i - 1]
                key = (x, a)
                deltas[key] = get(key, 0) - 1
                key = (x, c)
                deltas[key] = get(key, 0) + 1
            if i + 2 < n:
                y = tokens[i + 2]
                key = (b, y)
                deltas[key] = get(key, 0) - 1
                if y == a and i + 3 < n and tokens[i + 3] == b:
                    y = c  # the next pair is replaced too
                key = (c, y)
                deltas[key] = get(key, 0) + 1
            prev = i
            i += 2
        if prev < 0:
            continue
        rewritten += 1
        words[wid] = tuple(out)
        n_rep = n - len(out)
        entries = counts[wid]
        for li, cnt in entries:
            repl[li] += n_rep * cnt
        if dev_counts is not None:
            for li, cnt in dev_counts[wid]:
                dev_repl[li] += n_rep * cnt
        for pair, d in deltas.items():
            if d > 0:  # the word may hold a pair it did not; list it
                slot = index.get(pair)
                if slot is None:
                    index[pair] = wid
                elif type(slot) is int:
                    if slot != wid:
                        index[pair] = [slot, wid]
                elif slot[-1] != wid:
                    slot.append(wid)
            elif not d:  # a new pair cancelled an old one
                continue
            for li, cnt in entries:
                table = changed[li]
                table[pair] = table.get(pair, 0) + d * cnt
    # With a == b, as in "aaa", a replacement's neighbours count (a, b) too.
    for table in changed:
        table.pop((a, b), None)
    return changed, rewritten, repl, dev_repl


def encode_ids(ids, table: dict) -> list:
    """Tokenize one pre-token's id sequence (its bytes, say) against a merge table.

    ``table`` maps an adjacent id pair to ``(rank, merged_id)``. The lowest
    rank present in the sequence is applied to all of its occurrences
    (leftmost-first, non-overlapping) until no pair is in the table.

    Keys are ``rank * n + position`` of a pair's left symbol. Symbols stay
    at their input positions; a merged-away right symbol becomes ``None``,
    and neighbours are found by stepping over those holes (at most one
    fewer than the bytes of the token beside them). A popped key is stale,
    and skipped, unless the pair now at its position still has its rank.
    """
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
