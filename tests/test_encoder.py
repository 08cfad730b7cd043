"""The kernels' semantics, and the encoder against independent references.

``encode_ids`` encodes with a rank-ordered merge queue; these tests hold it
to the results of a per-merge rescan and a sequential merge replay.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parity_bpe import TokenizerModel, _kernels, pretokenize
from parity_bpe.trainer import _WordStore

from .oracles import replace_pair, replay_encode, rescan_encode_ids, sliding_pair_counts, store_ids


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


def test_encode_applies_by_rank():
    # ids: a=0 b=1; merges: (1,0)->2 rank0, (2,1)->3 rank1
    table = {(1, 0): (0, 2), (2, 1): (1, 3)}
    assert _kernels.encode_ids([1, 0, 1, 0, 1], table) == [2, 3]


@st.composite
def tables_and_ids(draw):
    """A merge table over a 2-4 byte alphabet and an id sequence over it.

    Merge operands are drawn from everything produced so far, so with so few
    letters many merges rebuild bytes an earlier merge already produced and
    map to its earlier, canonical id. The input is a run of produced tokens,
    so that long merges apply too.
    """
    letters = [bytes([ord("a") + i]) for i in range(draw(st.integers(2, 4)))]
    produced = list(letters)
    merges = []
    for _ in range(draw(st.integers(0, 24))):
        pair = (draw(st.sampled_from(produced)), draw(st.sampled_from(produced)))
        if pair not in merges:
            merges.append(pair)
            produced.append(pair[0] + pair[1])
    table = TokenizerModel(merges)._table
    data = b"".join(draw(st.lists(st.sampled_from(produced), max_size=60)))[:200]
    return table, list(data)


@settings(max_examples=300, deadline=None)
@given(tables_and_ids())
def test_matches_rescan(case):
    table, ids = case
    assert _kernels.encode_ids(ids, table) == rescan_encode_ids(ids, table)


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


@pytest.mark.parametrize(
    "merges, data, expected",
    [
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
    ],
)
def test_lower_rank_pair_made_mid_pass_waits_for_the_pass(merges, data, expected):
    assert _queue_encode(TokenizerModel(merges), data) == expected


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
