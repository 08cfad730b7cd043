"""Trainer state with words shared between languages and between texts.

Each word keeps sparse ``(lang_index, count)`` entries for the training text
and for the dev text. In the synthetic fixture every word occurs in one
language only, so these cases build corpora whose words occur in two or
three languages, with dev text that shares some words with the training text
and has others of its own, and hold the incremental state to a recount from
scratch after every merge.
"""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_bpe import (
    LabeledCorpus,
    ParityConfig,
    load_labeled_corpus,
    load_parallel_dev,
    train_classical,
    train_parity,
)
from parity_bpe import _kernels, trainer
from parity_bpe.trainer import TrainerState

from .oracles import (
    global_pair_counts,
    lang_pair_counts,
    listed_ids,
    replace_pair,
    sliding_pair_counts,
    store_ids,
    tokenized_words,
)

LANGS = ("aa", "bb", "cc")


@st.composite
def shared_corpora(draw):
    """Training and dev multisets over overlapping word lists, a selection
    threshold and a selection schedule.

    The first word is in every language's training text; the others in
    whichever languages draw them, and the second is in the first
    language's. The dev multisets are drawn on their own: from the training
    words, with counts of their own (the first word's first count always
    differs), and from dev-only words, one of which is made of bytes no
    training word has. The threshold stands in for ``MIN_PAIR_COUNT``. The
    schedule names the heap of each selection: ``None`` for the global
    heap, or a language, so heaps are first built mid-run.
    """
    langs = LANGS[: draw(st.integers(2, 3))]
    words = draw(
        st.lists(
            st.text(alphabet="abc", min_size=1, max_size=7).map(str.encode),
            min_size=2,
            max_size=10,
            unique=True,
        )
    )
    multisets = {}
    for lang in langs:
        chosen = [words[0]] + draw(st.lists(st.sampled_from(words[1:]), unique=True))
        if lang == langs[0] and words[1] not in chosen:
            chosen.append(words[1])
        multisets[lang] = {w: draw(st.integers(1, 4)) for w in chosen}
    dev_only = draw(
        st.lists(
            st.text(alphabet="abc", min_size=1, max_size=7)
            .map(str.encode)
            .filter(lambda w: w not in words),
            max_size=4,
            unique=True,
        )
    )
    foreign = draw(st.text(alphabet="de", min_size=2, max_size=5)).encode()
    dev_multisets = {}
    for lang in langs:
        chosen = draw(st.lists(st.sampled_from(words + dev_only), unique=True))
        dev_multisets[lang] = {w: draw(st.integers(1, 4)) for w in chosen}
    first = multisets[langs[0]][words[0]]
    dev_multisets[langs[0]][words[0]] = first + draw(st.integers(1, 3))
    dev_multisets[langs[-1]][foreign] = draw(st.integers(1, 4))
    threshold = draw(st.integers(1, 3))
    schedule = draw(st.lists(st.sampled_from([None, *langs]), min_size=1, max_size=10))
    return multisets, dev_multisets, threshold, schedule


def _replay(word: bytes, merges) -> tuple[bytes, ...]:
    tokens = tuple(bytes([b]) for b in word)
    for left, right in merges:
        tokens = replace_pair(tokens, left, right)
    return tokens


def _recount(multisets, merges):
    """Per-language pair counts and token totals of the words, from scratch."""
    pairs = {lang: Counter() for lang in multisets}
    totals = {lang: 0 for lang in multisets}
    for lang, words in multisets.items():
        for word, count in words.items():
            tokens = _replay(word, merges)
            totals[lang] += len(tokens) * count
            for i in range(len(tokens) - 1):
                pairs[lang][(tokens[i], tokens[i + 1])] += count
    return pairs, totals


def _check_side(state, multisets, dev):
    """Each word of one text is stored once, tokenized as the merges say, with its counts."""
    seen = []
    for spans, counts in tokenized_words(state, dev):
        word = b"".join(spans)
        seen.append(word)
        assert spans == _replay(word, state.merges)
        assert counts == {lang: m[word] for lang, m in multisets.items() if word in m}
    assert sorted(seen) == sorted(set().union(*multisets.values()))


def _check(state, multisets, dev_multisets):
    pairs, totals = _recount(multisets, state.merges)
    _, dev_totals = _recount(dev_multisets, state.merges)
    for li, lang in enumerate(state.langs):
        assert lang_pair_counts(state, lang) == dict(pairs[lang])
        assert state.train.token_totals[li] == totals[lang]
        assert state.train.dev_totals[li] == dev_totals[lang]
    # every pair with a count has its per-language list, and no other pair
    assert set(global_pair_counts(state)) == set().union(*pairs.values())
    _check_side(state, multisets, dev=False)
    _check_side(state, dev_multisets, dev=True)
    # each distinct pre-token of training and dev text is stored once, in byte order
    words = store_ids(state.train.words)
    stored = [b"".join(state.vocab[t] for t in tokens) for tokens in words]
    assert stored == sorted(set().union(*multisets.values(), *dev_multisets.values()))
    for heap in (state.global_heap, *state.lang_heaps):
        assert all(-entry[0] >= trainer.MIN_PAIR_COUNT for entry in heap)
    # a built heap holds an entry at or above each count its selection could pick
    total = state.train.total_counts
    built = [(state.global_heap, total)] if total is not None else []
    built += [(state.lang_heaps[li], state.train.lang_counts[li]) for li in state._built_langs]
    for heap, table in built:
        top = {}
        for negc, left, right in heap:
            top[left, right] = max(top.get((left, right), 0), -negc)
        for (a, b), count in store_ids(table).items():
            if count >= trainer.MIN_PAIR_COUNT:
                assert top.get((state.vocab[a], state.vocab[b]), 0) >= count
    # the index lists every word under each pair it holds, and names only words
    index = store_ids(state.train.index)
    for wid, tokens in enumerate(words):
        for pair in zip(tokens, tokens[1:]):
            assert wid in listed_ids(index, pair)
    n_words = len(words)
    assert all(0 <= wid < n_words for pair in index for wid in listed_ids(index, pair))
    _check_tables(state)


def _check_tables(state):
    """Each language's count table is a recount of that language's stored
    words and holds positive counts only; once the global heap is built, the
    summed table is the sum of the language tables, and None before."""
    store = state.train
    for li, table in enumerate(store.lang_counts):
        words = [
            (tokens, count)
            for tokens, entries in zip(store_ids(store.words), store.counts)
            for lang, count in entries
            if lang == li
        ]
        assert store_ids(table) == dict(sliding_pair_counts(words))
        assert all(count > 0 for count in table.values())
    if store.total_counts is not None:
        assert store.total_counts == dict(sum(map(Counter, store.lang_counts), Counter()))
    else:
        assert store.total_counts is None


def _best(pairs: Counter):
    """Brute-force selection: highest count, then smallest byte spans."""
    if not pairs:
        return None
    (left, right), count = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
    return left, right, count


@settings(max_examples=200, deadline=None)
@given(shared_corpora())
def test_shared_words_match_recount_after_every_merge(case):
    multisets, dev_multisets, threshold, schedule = case
    with pytest.MonkeyPatch.context() as mp:
        # heaps read the threshold when they are filled, not only at selection
        mp.setattr(trainer, "MIN_PAIR_COUNT", threshold)
        corpus = LabeledCorpus.from_multisets(multisets)
        state = TrainerState(corpus, dev_words=dev_multisets)
        assert any(len(entries) > 1 for entries in state.train.counts)
        _check(state, multisets, dev_multisets)
        for lang in schedule:
            pairs, _ = _recount(multisets, state.merges)
            if lang is None:
                expected = _best(sum(pairs.values(), Counter()))
                sel = state.select_global()
            else:
                expected = _best(pairs[lang])
                sel = state.select_for_lang(lang)
            if expected is not None and expected[2] < threshold:
                expected = None
            if sel is None:
                assert expected is None
                continue
            (a, b), count = sel
            assert (state.vocab[a], state.vocab[b], count) == expected
            state.apply((a, b))
            _check(state, multisets, dev_multisets)


def test_stale_index_entries_are_skipped(monkeypatch):
    """A word that lost a pair stays listed under it and is left as it is."""
    multisets = {"aa": {b"cab": 3, b"ab": 2, b"dca": 2}, "bb": {b"ca": 4}}
    dev_multisets = {"aa": {b"cab": 1, b"dca": 1}, "bb": {b"ca": 2}}
    state = TrainerState(LabeledCorpus.from_multisets(multisets), dev_words=dev_multisets)
    words = state.train.words
    a, b, c, d = b"abcd"
    cab, ca, dca = (store_ids(words).index(tuple(w)) for w in (b"cab", b"ca", b"dca"))
    state.apply((a, b))  # cab loses (c, a) and keeps c
    state.apply((d, c))  # dca loses (c, a) and keeps a
    ab, dc = state.first_id[b"ab"], state.first_id[b"dc"]
    assert store_ids([words[cab], words[dca]]) == [(c, ab), (dc, a)]
    assert {cab, ca, dca} <= set(listed_ids(store_ids(state.train.index), (c, a)))
    _check(state, multisets, dev_multisets)

    calls = []
    merge_and_deltas = _kernels.merge_and_deltas

    def record(store, listed, *args):
        result = merge_and_deltas(store, listed, *args)
        calls.append((sorted(listed), result[1]))
        return result

    monkeypatch.setattr(_kernels, "merge_and_deltas", record)
    stale = (words[cab], words[dca])
    assert state.apply((c, a)) == [0, 4]
    assert calls == [(sorted([cab, ca, dca]), 1)]  # one call; it rewrote only ca
    assert words[cab] is stale[0] and words[dca] is stale[1]
    assert store_ids([words[cab], words[dca]]) == [(c, ab), (dc, a)]
    _check(state, multisets, dev_multisets)


@pytest.mark.parametrize("mode", ["classical", "parity", "hybrid"])
def test_count_tables_match_recount_after_every_merge(small_synth_dir, mode):
    corpus = load_labeled_corpus(small_synth_dir / "manifest.json")
    checked = []

    def check(state, record):
        _check_tables(state)
        checked.append(record.step)

    if mode == "classical":
        train_classical(corpus, 150, on_step=check)
    else:
        dev = load_parallel_dev(small_synth_dir / "dev", list(corpus.languages))
        config = ParityConfig(150, global_merges=75 if mode == "hybrid" else 0, window_size=0)
        train_parity(corpus, dev, config, on_step=check)
    assert checked == list(range(1, 151))


def test_store_holds_no_object_per_pair_for_the_collector(corpus, dev):
    """After a run, each count is an int, which the collector never tracks, and
    a one-word slot a bare id."""
    seen = []
    config = ParityConfig(200, global_merges=50, window_size=0)
    train_parity(corpus, dev, config, on_step=lambda state, record: seen.append(state))
    state = seen[-1]
    assert state.train.total_counts is not None and state._built_langs  # both kinds of step ran
    store = state.train
    gc.collect()
    assert len(store.lang_counts) == store.n_langs
    for table in (*store.lang_counts, store.total_counts):
        assert table and all(type(count) is int for count in table.values())
        assert not any(map(gc.is_tracked, table.values()))
    assert {type(slot) for slot in store.index.values()} == {int, list}
    assert all(len(slot) >= 2 for slot in store.index.values() if type(slot) is list)
    _check_tables(state)


def _state_of(*words):
    """A one-language trainer state of ``words``, each counted once, and each word's id."""
    state = TrainerState(LabeledCorpus.from_multisets({"aa": {w: 1 for w in words}}))
    ids = {w: store_ids(state.train.words).index(tuple(w)) for w in words}
    return state, ids


def test_a_stale_bare_id_is_skipped(monkeypatch):
    state, ids = _state_of(b"cab")
    store = state.train
    a, b, c = b"abc"
    state.apply((a, b))  # the word loses (c, a) and stays listed under it
    assert store_ids(store.index)[(c, a)] == ids[b"cab"]
    assert (c, a) not in store_ids(store.lang_counts[0])
    word = store.words[ids[b"cab"]]
    calls = []
    merge_and_deltas = _kernels.merge_and_deltas

    def record(store, listed, *args):
        result = merge_and_deltas(store, listed, *args)
        calls.append((listed, result[0]))
        return result

    monkeypatch.setattr(_kernels, "merge_and_deltas", record)
    assert state.apply((c, a)) == [0]
    assert calls == [((ids[b"cab"],), [{}])]  # one visit, no deltas
    assert store.words[ids[b"cab"]] is word and (c, a) not in store_ids(store.index)


def test_a_word_gaining_a_pair_twice_stays_a_bare_id():
    # (a, b) -> c, an id the word holds already: (c, c) is gained on both sides.
    # A merge of the trainer never yields a byte's id, so the kernel runs alone.
    state, ids = _state_of(b"ccabc")
    store = state.train
    a, b, c = b"abc"
    assert store_ids(store.index)[(c, c)] == ids[b"ccabc"]
    assert store_ids(store.lang_counts) == [{(c, c): 1, (c, a): 1, (a, b): 1, (b, c): 1}]
    changed, _, repl, _ = _kernels.merge_and_deltas(store, (ids[b"ccabc"],), a, b, c)
    assert store_ids(store.words[ids[b"ccabc"]]) == (c, c, c, c) and repl == [1]
    assert store_ids(store.index)[(c, c)] == ids[b"ccabc"]
    # folded into the counts above, with (a, b) gone: [{(c, c): 3}]
    assert store_ids(changed) == [{(c, c): 2, (c, a): -1, (b, c): -1}]


def test_a_second_word_turns_the_slot_into_a_list():
    state, ids = _state_of(b"xab", b"xabab")
    store = state.train
    a, b, x = b"abx"
    assert store_ids(store.index)[(a, b)] == [ids[b"xab"], ids[b"xabab"]]
    assert store_ids(store.index)[(b, a)] == ids[b"xabab"]
    state.apply((a, b))
    assert store_ids(store.index)[(x, 256)] == [ids[b"xab"], ids[b"xabab"]]
    assert store_ids(store.index)[(256, 256)] == ids[b"xabab"]
    assert store_ids(store.lang_counts) == [{(x, 256): 2, (256, 256): 1}]


def test_a_run_of_a_equal_pair_leaves_no_count_of_it():
    state, ids = _state_of(b"aaa")
    store = state.train
    a = ord("a")
    assert store_ids(store.lang_counts) == [{(a, a): 2}]
    assert store_ids(store.index) == {(a, a): ids[b"aaa"]}
    state.apply((a, a))
    assert store_ids(store.words[ids[b"aaa"]]) == (256, a)
    assert store_ids(store.lang_counts) == [{(256, a): 1}]
    assert store_ids(store.index) == {(256, a): ids[b"aaa"]}


def test_runs_of_an_equal_pair_of_even_and_odd_length():
    """An even run of a merges whole, an odd run leaves its last a."""
    state, ids = _state_of(b"aaaa", b"xaaaaax")
    store = state.train
    a, x = b"ax"
    assert store_ids(store.lang_counts) == [{(a, a): 7, (x, a): 1, (a, x): 1}]
    _check_tables(state)
    assert state.apply((a, a)) == [2 + 2]
    assert store_ids([store.words[ids[b"aaaa"]], store.words[ids[b"xaaaaax"]]]) == [
        (256, 256), (x, 256, 256, a, x)]
    assert store_ids(store.lang_counts) == [{(256, 256): 2, (x, 256): 1, (256, a): 1, (a, x): 1}]
    _check_tables(state)
    index = store_ids(store.index)
    assert listed_ids(index, (256, 256)) == [ids[b"aaaa"], ids[b"xaaaaax"]]
    assert index[(x, 256)] == index[(256, a)] == ids[b"xaaaaax"]
