"""Trainer state with words shared between languages.

Each word keeps sparse ``(lang_index, count)`` entries. In the synthetic
fixture every word occurs in one language only, so these cases build corpora
whose words occur in two or three languages, and hold the incremental state
to a recount from scratch after every merge.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_bpe import LabeledCorpus
from parity_bpe import trainer
from parity_bpe.trainer import TrainerState

from .oracles import replace_pair

LANGS = ("aa", "bb", "cc")


@st.composite
def shared_corpora(draw):
    """Per-language multisets over one word list, plus a selection schedule.

    The first word is in every language; the others in whichever languages
    draw them. The schedule names the heap of each selection: ``None`` for
    the global heap, or a language, so heaps are first built mid-run.
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
        multisets[lang] = {w: draw(st.integers(1, 4)) for w in chosen}
    schedule = draw(st.lists(st.sampled_from([None, *langs]), min_size=1, max_size=10))
    return multisets, schedule


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


def _check(state, multisets):
    pairs, totals = _recount(multisets, state.merges)
    for li, lang in enumerate(state.langs):
        assert state.lang_pair_counts(lang) == dict(pairs[lang])
        assert state.train.token_totals[li] == totals[lang]
        assert state.dev.token_totals[li] == totals[lang]
    # every pair with a count has its per-language list, and no other pair
    assert set(state.global_pair_counts()) == set().union(*pairs.values())
    for spans, counts in state.tokenized_words():
        word = b"".join(spans)
        assert spans == _replay(word, state.merges)
        assert counts == {lang: m[word] for lang, m in multisets.items() if word in m}


def _best(pairs: Counter):
    """Brute-force selection: highest count, then smallest byte spans."""
    if not pairs:
        return None
    (left, right), count = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
    return left, right, count


@settings(max_examples=200, deadline=None)
@given(shared_corpora())
def test_shared_words_match_recount_after_every_merge(case):
    multisets, schedule = case
    corpus = LabeledCorpus.from_multisets(multisets)
    state = TrainerState(corpus, dev_words=multisets)
    assert any(len(entries) > 1 for entries in state.train.counts)
    _check(state, multisets)
    for lang in schedule:
        pairs, _ = _recount(multisets, state.merges)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "MIN_PAIR_COUNT", 1)
            if lang is None:
                expected = _best(sum(pairs.values(), Counter()))
                sel = state.select_global()
            else:
                expected = _best(pairs[lang])
                sel = state.select_for_lang(lang)
        if sel is None:
            assert expected is None
            continue
        (a, b), count = sel
        assert (state.vocab[a], state.vocab[b], count) == expected
        state.apply((a, b))
        _check(state, multisets)
