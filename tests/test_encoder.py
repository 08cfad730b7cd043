"""The kernels' semantics, and the encoder against independent references.

``encode_ids`` encodes with a rank-ordered merge queue (a heap, or rank
buckets from ``LONG_PRETOKEN`` ids on); these tests hold it to the results
of a per-merge rescan and a sequential merge replay.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parity_bpe import TokenizerModel, _kernels, pretokenize
from parity_bpe._kernels import LONG_PRETOKEN
from parity_bpe.trainer import _WordStore

from .oracles import (
    merge_table,
    replace_pair,
    replay_encode,
    rescan_encode_ids,
    sliding_pair_counts,
    store_ids,
)


def test_overlapping_pairs_counted_positionally():
    assert _kernels.count_pairs((1, 1, 1)) == {(1, 1): 2}


def _merge_in_store(tokens, a, b, c, n_langs, entries):
    """The training kernel on a store of one word with training ``entries``.

    Returns the word afterwards, the per-language replacement counts and
    nonzero pair deltas, and the store's index, which starts empty, as the
    kernel leaves them, by token ids (``store_ids``). A word the kernel does
    not rewrite must keep its str.
    """
    store = _WordStore(n_langs, with_dev=False)
    store.words.append(_kernels.token_codes(tokens))
    store.counts.append(entries)
    word = store.words[0]
    changed, rewritten, repl, _ = _kernels.merge_and_deltas(store, [0], a, b, c)
    assert rewritten == (max(repl) > 0)
    if not rewritten:
        assert store.words[0] is word
    # a delta of 0, a pair the word both gains and loses, changes no count
    changed = [{pair: d for pair, d in deltas.items() if d} for deltas in store_ids(changed)]
    return store_ids(store.words[0]), repl, changed, store_ids(store.index)


def _merge_one_word(tokens, a, b, c):
    """The training kernel on a store of one word, counted once in one language.

    Returns the word afterwards, its replacement count, its pair deltas and
    the store's index.
    """
    new, repl, changed, index = _merge_in_store(tokens, a, b, c, 1, ((0, 1),))
    return new, repl[0], changed[0], index


def test_overlapping_merge_is_leftmost_nonoverlapping():
    new, replaced, deltas, index = _merge_one_word((1, 1, 1), 1, 1, 9)
    assert new == (9, 1)
    assert replaced == 1
    assert deltas == {(9, 1): 1}  # the merged pair's own counts are dropped
    assert index == {(9, 1): 0}  # a slot naming one word is the bare id


def test_no_match_returns_input():
    for word in ((1, 2, 3), (7, 1, 8)):  # the second holds both ids, apart
        new, replaced, deltas, index = _merge_one_word(word, 7, 8, 9)
        assert new == word and replaced == 0 and deltas == {} and index == {}


def _recount_merge(tokens, a, b, c):
    """merge_and_deltas from the oracles: replace, then recount every pair."""
    # ids as one-byte spans: a replaced pair is the only two-byte span
    spans = replace_pair(tuple(bytes([t]) for t in tokens), bytes([a]), bytes([b]))
    new = tuple(c if len(span) == 2 else span[0] for span in spans)
    old_counts = sliding_pair_counts([(tuple(tokens), 1)])
    new_counts = sliding_pair_counts([(new, 1)])
    deltas = {
        pair: new_counts[pair] - old_counts[pair]
        for pair in old_counts.keys() | new_counts.keys()
        if new_counts[pair] != old_counts[pair]
    }
    return new, len(tokens) - len(new), deltas


# Ids 0-3 for tokens and the pair, 0-4 for the result: a == b, runs such as
# abab, and a result already in the word (or equal to a or b) all come up.
# The word is also counted in two of three languages, ``counts`` times each,
# all but the language ``absent``.
@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=14).map(tuple),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(0, 2),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda m: m[0] != m[1]),
)
@example((0, 1, 0, 1), 0, 1, 4, 0, (1, 2))  # abab
@example((0, 1, 0, 1, 0), 0, 1, 4, 1, (3, 1))
@example((2, 2, 2, 2, 2), 2, 2, 4, 2, (2, 5))  # a == b
@example((4, 0, 1, 4), 0, 1, 4, 0, (1, 4))  # c beside the pair
@example((0, 1, 0, 1), 0, 1, 0, 1, (5, 2))  # c == a
def test_merge_and_deltas_matches_recount(tokens, a, b, c, absent, counts):
    new, replaced, deltas, index = _merge_one_word(tokens, a, b, c)
    expected_new, expected_replaced, expected = _recount_merge(tokens, a, b, c)
    expected.pop((a, b), None)  # the store drops the merged pair's counts
    assert (new, replaced, deltas) == (expected_new, expected_replaced, expected)
    # the word is listed under each pair it gained, and under no pair it lacks
    gained = {pair for pair, d in expected.items() if d > 0}
    assert gained <= set(index) - {(a, b)} <= set(zip(new, new[1:]))
    assert all(listed == 0 for listed in index.values())

    # in two languages, each language's deltas scale by its count, and the
    # language the word is not in gets none
    entries = tuple(zip((li for li in range(3) if li != absent), counts))
    new, repl, changed, _ = _merge_in_store(tokens, a, b, c, 3, entries)
    assert new == expected_new
    for li, count in entries:
        assert changed[li] == {pair: d * count for pair, d in expected.items()}
        assert repl[li] == expected_replaced * count
    assert changed[absent] == {} and repl[absent] == 0


def rows_of(table: dict) -> list:
    """A pair-keyed table as the kernel takes it: ``rows[left][right]`` is
    ``table[(left, right)]``, with a row for every id up to the largest the
    table names. For tables no model builds, such as one id made twice."""
    ids = [i for (left, right), (_, merged) in table.items() for i in (left, right, merged)]
    rows = [{} for _ in range(max(ids, default=-1) + 1)]
    for (left, right), entry in table.items():
        rows[left][right] = entry
    return rows


def test_encode_applies_by_rank():
    # ids: a=0 b=1; merges: (1,0)->2 rank0, (2,1)->3 rank1
    table = {(1, 0): (0, 2), (2, 1): (1, 3)}
    assert _kernels.encode_ids([1, 0, 1, 0, 1], rows_of(table)) == [2, 3]


@st.composite
def merge_lists(draw):
    """A merge list over a 2-4 byte alphabet, and every token it produces.

    Merge operands are drawn from everything produced so far, so with so few
    letters many merges rebuild bytes an earlier merge already produced and
    map to its earlier, canonical id.
    """
    letters = [bytes([ord("a") + i]) for i in range(draw(st.integers(2, 4)))]
    produced = list(letters)
    merges = []
    for _ in range(draw(st.integers(0, 24))):
        pair = (draw(st.sampled_from(produced)), draw(st.sampled_from(produced)))
        if pair not in merges:
            merges.append(pair)
            produced.append(pair[0] + pair[1])
    return merges, produced


@st.composite
def tables_and_ids(draw, long=False):
    """A drawn merge list's model table, its pair-keyed ``merge_table`` for
    the rescan oracle, and an id sequence over its alphabet.

    The input is a run of produced tokens, so that long merges apply too: at
    most 200 ids, or with ``long`` at least ``LONG_PRETOKEN``, enough to take
    the rank-bucket path.
    """
    merges, produced = draw(merge_lists())
    if long:
        rnd = draw(st.randoms(use_true_random=False))
        size = LONG_PRETOKEN + draw(st.integers(0, 64))
        data = b"".join(rnd.choices(produced, k=size))[:size]
    else:
        data = b"".join(draw(st.lists(st.sampled_from(produced), max_size=60)))[:200]
    return TokenizerModel(merges)._table, merge_table(merges), list(data)


@settings(max_examples=200, deadline=None)
@given(merge_lists())
def test_table_rows_hold_the_merge_table(case):
    """``_table[left]`` maps each right id to ``(rank, merged id)``: one row
    per id, the entries exactly the pair-keyed table's, and every id that
    leads no merge on one shared empty row."""
    merges, _ = case
    model = TokenizerModel(merges)
    rows = model._table
    assert len(rows) == len(model.id_to_bytes) == 256 + len(merges)
    expected = merge_table(merges)
    held = {(left, right): entry for left, row in enumerate(rows) for right, entry in row.items()}
    assert held == expected
    leaders = {left for left, _ in expected}
    empty = [row for left, row in enumerate(rows) if left not in leaders]
    assert not any(empty)
    assert len({id(row) for row in empty}) == 1


@settings(max_examples=300, deadline=None)
@given(tables_and_ids())
def test_matches_rescan(case):
    rows, table, ids = case
    assert _kernels.encode_ids(ids, rows) == rescan_encode_ids(ids, table)


# In a model's table an id is one byte string, so equal spans merge in step
# and a rank's positions come in order; here 5 is made from (3, 4) a pass
# before (1, 2), so the (5, 5) positions come unsorted.
_TWO_SPANS_ONE_ID = {(3, 4): (0, 5), (1, 2): (1, 5), (5, 5): (2, 6)}


@settings(max_examples=20, deadline=None)
@given(tables_and_ids(long=True))
@example((rows_of(_TWO_SPANS_ONE_ID), _TWO_SPANS_ONE_ID, [1, 2, 3, 4, 3, 4] * 200))
def test_long_pretokens_match_rescan(case):
    rows, table, ids = case
    expected = rescan_encode_ids(ids, table)
    assert _kernels.encode_ids(ids, rows) == expected
    assert _kernels.encode_ids(bytes(ids), rows) == expected


def test_rank_buckets_start_at_long_pretoken(monkeypatch, synth_dir, classical_run):
    calls = []
    bucketed = _kernels.encode_long_ids

    def counted(ids, table):
        calls.append(len(ids))
        return bucketed(ids, table)

    monkeypatch.setattr(_kernels, "encode_long_ids", counted)
    model = classical_run[0]
    table = merge_table(model.merges)
    words = b"".join((synth_dir / "dev" / "aa.txt").read_bytes().split())
    for n in (LONG_PRETOKEN - 1, LONG_PRETOKEN):
        text = (words * (n // len(words) + 1))[:n]
        assert _kernels.encode_ids(text, model._table) == rescan_encode_ids(text, table)
    assert calls == [LONG_PRETOKEN]


@settings(max_examples=200, deadline=None)
@given(word=st.binary(max_size=300))
def test_takes_a_pretokens_bytes(classical_run, word):
    """The word caches pass a pre-token's bytes as its ids, not a list of them."""
    table = classical_run[0]._table
    assert _kernels.encode_ids(word, table) == _kernels.encode_ids(list(word), table)


def _queue_encode(model, data: bytes) -> list[bytes]:
    return [model.id_to_bytes[i] for i in _kernels.encode_ids(list(data), model._table)]


# (a, bc) is the last merge and rebuilds "abc", whose canonical id is older.
# The pair it makes with a neighbour can rank lower, but must wait until no
# (a, bc) is left.
_REBUILD_ABC = [(b"b", b"c"), (b"a", b"b"), (b"ab", b"c")]


_MID_PASS_CASES = [
    # (abc, a) made on the right must not take the a of the next (a, bc)
    (_REBUILD_ABC + [(b"abc", b"a"), (b"a", b"bc")], b"abcabc", [b"abc", b"abc"]),
    # ... and still applies once the queue has run empty
    (_REBUILD_ABC + [(b"abc", b"a"), (b"a", b"bc")], b"abca", [b"abca"]),
    # (x, abc) made on the left must not start a chain that takes that a
    (
        _REBUILD_ABC + [(b"x", b"abc"), (b"xabc", b"a"), (b"a", b"bc")],
        b"xabcabc",
        [b"xabc", b"abc"],
    ),
]


@pytest.mark.parametrize("merges, data, expected", _MID_PASS_CASES)
def test_lower_rank_pair_made_mid_pass_waits_for_the_pass(merges, data, expected):
    assert _queue_encode(TokenizerModel(merges), data) == expected


# Tiled into one pre-token past LONG_PRETOKEN, for the rank-bucket path. No
# merge joins two tiles, so each tile encodes as it does alone. (The merge
# replay is no reference here: it never goes back to (abc, a) once past it,
# and so splits the second and third cases even untiled.)
@pytest.mark.parametrize("merges, data, expected", _MID_PASS_CASES)
def test_lower_rank_pair_made_mid_pass_waits_in_a_long_pretoken(merges, data, expected):
    model = TokenizerModel(merges)
    text = data * (LONG_PRETOKEN // len(data) + 1)
    assert _queue_encode(model, text) == expected * (len(text) // len(data))
    expected = rescan_encode_ids(text, merge_table(merges))
    assert _kernels.encode_ids(text, model._table) == expected


def test_long_whitespace_free_pretoken_matches_replay(synth_dir, classical_run):
    model, _ = classical_run
    words = b"".join((synth_dir / "dev" / "aa.txt").read_bytes().split())
    text = (words * (4096 // len(words) + 1))[:4096]
    assert len(text) == 4096 and len(pretokenize(text)) == 1
    small = TokenizerModel(list(model.merges[:150]))
    assert _queue_encode(small, text) == replay_encode(small.merges, text)


def test_a_merge_into_an_id_the_word_holds_already():
    """When the merged bytes already have an id, ``apply`` reuses it, and the
    kernel may write an id the word holds: ``ab`` is 256 beside a lone a, b."""
    ab, a, b = 256, ord("a"), ord("b")
    word = (ab, a, b, ab, a, b)
    new, replaced, deltas, index = _merge_one_word(word, a, b, ab)
    assert (new, replaced) == ((ab,) * 4, 2)
    before, after = sliding_pair_counts([(word, 1)]), sliding_pair_counts([(new, 1)])
    expected = {pair: after[pair] - before[pair] for pair in before | after if pair != (a, b)}
    assert deltas == {pair: d for pair, d in expected.items() if d}
    assert deltas == {(ab, ab): 3, (ab, a): -2, (b, ab): -1}
    assert index == {(ab, ab): 0}  # gained three times, listed once
