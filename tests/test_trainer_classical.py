import random

import pytest

from parity_bpe import (
    ConfigError,
    CorpusError,
    LabeledCorpus,
    NormUnit,
    ParityConfig,
    TrainLog,
    TrainStep,
    train_classical,
    train_no_dev,
)
from parity_bpe.trainer import TrainerState

from .oracles import global_pair_counts, greedy_steps, sliding_pair_counts, tokenized_words


def corpus_of(multiset: dict[bytes, int], lang="xx") -> LabeledCorpus:
    return LabeledCorpus.from_multisets({lang: multiset})


def state_pair_counts(state):
    return global_pair_counts(state)


def best_pair(state):
    """Global selection with its id pair mapped to byte spans."""
    sel = state.select_global()
    if sel is None:
        return None
    (a, b), count = sel
    return (state.vocab[a], state.vocab[b]), count


def recount_from_state(state):
    words = [
        (tokens, sum(counts.values())) for tokens, counts in tokenized_words(state)
    ]
    return sliding_pair_counts(words)


class TestInitState:
    def test_simple_counts(self):
        state = TrainerState(corpus_of({b"ab": 2}))
        assert state_pair_counts(state) == {(b"a", b"b"): 2}

    def test_overlapping_adjacency_counted_per_position(self):
        state = TrainerState(corpus_of({b"aaa": 1}))
        assert state_pair_counts(state) == {(b"a", b"a"): 2}
        assert state_pair_counts(state) == dict(recount_from_state(state))

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            LabeledCorpus.from_multisets({})

    def test_token_totals(self):
        state = TrainerState(corpus_of({b"ab": 2, b"c": 3}))
        assert state.train.token_totals == [2 * 2 + 3]


class TestSelectMerge:
    def test_argmax(self):
        state = TrainerState(corpus_of({b"ab": 4, b"ba": 2}))
        assert best_pair(state) == ((b"a", b"b"), 4)

    def test_tie_break_lexicographic(self):
        state = TrainerState(corpus_of({b"ab": 3, b"ac": 3}))
        assert best_pair(state) == ((b"a", b"b"), 3)

    def test_no_eligible_pair(self):
        state = TrainerState(corpus_of({b"ab": 1}))
        assert best_pair(state) is None

    def test_matches_bruteforce_on_repeated_text(self):
        state = TrainerState(corpus_of({b"abab": 2, b"ab": 1}))
        counts = recount_from_state(state)
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert best_pair(state) == best


class TestApplyMerge:
    def test_basic_replacement(self):
        state = TrainerState(corpus_of({b"abab": 1}))
        before = state.train.token_totals[0]
        assert state.apply((ord("a"), ord("b"))) == [2]  # ids 0-255 are the bytes
        assert state.train.token_totals[0] == before - 2
        (tokens, _), = tokenized_words(state)
        assert tokens == (b"ab", b"ab")

    def test_self_overlap_leftmost_first(self):
        state = TrainerState(corpus_of({b"aaa": 1}))
        # two adjacencies, one replacement
        assert state.apply((ord("a"), ord("a"))) == [1]
        (tokens, _), = tokenized_words(state)
        assert tokens == (b"aa", b"a")

    def test_incremental_counts_match_recount_after_random_merges(self):
        rng = random.Random(5)
        words = {}
        for _ in range(60):
            length = rng.randint(1, 8)
            word = bytes(rng.choice(b"abcd") for _ in range(length))
            words[word] = words.get(word, 0) + rng.randint(1, 5)
        state = TrainerState(corpus_of(words))
        for step in range(50):
            sel = state.select_global()
            if sel is None:
                break
            state.apply(sel[0])
            assert state_pair_counts(state) == dict(recount_from_state(state))


class TestTrainClassical:
    def test_zero_budget_identity(self, corpus):
        model, log = train_classical(corpus, 0)
        assert model.merges == ()
        assert len(log) == 0

    def test_negative_budget_rejected(self, corpus):
        with pytest.raises(ConfigError):
            train_classical(corpus, -1)

    def test_budget_ceiling(self):
        """Every id of a budget up to 0x10FFFF - 511 merges has a code point."""
        corpus = corpus_of({b"abab": 2})
        with pytest.raises(ConfigError, match="must be at most 1113600"):
            train_classical(corpus, 1_113_601)
        model, log = train_classical(corpus, 1_113_600)  # stops when no pair is left
        assert list(model.merges) == [(b"a", b"b"), (b"ab", b"ab")] and log.stopped_early

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, "3"])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(ConfigError, match=f"merge budget must be an integer, got {budget!r}"):
            train_classical(corpus_of({b"abab": 2}), budget)

    def test_abab_trace(self):
        model, log = train_classical(corpus_of({b"abab": 2}), 2)
        assert list(model.merges) == [(b"a", b"b"), (b"ab", b"ab")]
        assert [s.count for s in log] == [4, 2]

    def test_early_stop_logged(self):
        model, log = train_classical(corpus_of({b"ab": 1, b"cd": 1}), 5)
        assert len(model.merges) == 0
        assert log.stopped_early
        assert "count >= 2" in log.stop_reason

    def test_greedy_matches_oracle_on_random_corpora(self):
        rng = random.Random(17)
        for trial in range(30):
            words = {}
            n_types = rng.randint(3, 50)
            for _ in range(n_types):
                length = rng.randint(1, 8)
                word = bytes(rng.choice(b"abc ") for _ in range(length)).replace(b" ", b"a")
                words[word] = words.get(word, 0) + rng.randint(1, 9)
            budget = rng.randint(1, 10)
            model, log = train_classical(corpus_of(words), budget)
            expected = greedy_steps(words, budget)
            got = [(s.left, s.right, s.count) for s in log]
            assert got == expected, f"trial {trial}"

    def test_deterministic(self, corpus):
        m1, l1 = train_classical(corpus, 120)
        m2, l2 = train_classical(corpus, 120)
        assert m1.merges == m2.merges
        assert [s.to_record() for s in l1] == [s.to_record() for s in l2]

    def test_token_total_telescoping(self):
        words = {b"abcabc": 3, b"abab": 2, b"cc": 5}
        state = TrainerState(corpus_of(words))
        total = state.train.token_totals[0]
        for _ in range(6):
            sel = state.select_global()
            if sel is None:
                break
            pair, count = sel
            repl = state.apply(pair)
            assert repl[0] <= count
            total -= repl[0]
            assert state.train.token_totals[0] == total

    def test_log_jsonl_roundtrip(self, tmp_path):
        _, log = train_classical(corpus_of({b"abab": 2, b"cd": 4}), 3)
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        loaded = TrainLog.from_jsonl(path)
        assert [s.to_record() for s in loaded] == [s.to_record() for s in log]

    def test_record_writes_each_field_unless_it_holds_its_default(self):
        bare = TrainStep(3, b"a\n", b"b", 7, "global")
        assert bare.to_record() == {"step": 3, "left": "a\\x0a", "right": "b", "count": 7,
                                    "mode": "global"}
        full = TrainStep(4, b"x", b"\xff", 2, "parity", lang="", fallback=True, skipped=["bb"],
                         cr_snapshot={}, dev_tokens={"aa": 0}, replacements={"aa": 1})
        record = full.to_record()
        assert record == {**vars(full), "left": "x", "right": "\\xff"}
        assert TrainStep.from_record({**record, "unknown": [1]}) == full
        assert TrainStep.from_record(bare.to_record()) == bare

    def test_log_is_its_steps_and_stops_by_its_reason(self):
        _, log = train_classical(corpus_of({b"abab": 2, b"cd": 4}), 50)
        assert isinstance(log, list) and len(log) == 3 and log.stopped_early
        assert log.stop_reason == "no pair with count >= 2 after 3 merges"
        _, log = train_classical(corpus_of({b"abab": 2, b"cd": 4}), 1)
        assert log.stop_reason is None and not log.stopped_early

    def test_multilingual_counts_are_aggregated(self):
        corpus = LabeledCorpus.from_multisets(
            {"aa": {b"xy": 2}, "bb": {b"xy": 3, b"zw": 4}}
        )
        state = TrainerState(corpus)
        assert state_pair_counts(state)[(b"x", b"y")] == 5
        model, log = train_classical(corpus, 1)
        assert log[0].left == b"x" and log[0].count == 5
        assert log[0].replacements == {"aa": 2, "bb": 3}


@pytest.mark.parametrize("case", ["synth", "stops-early"])
def test_equals_all_global_minmax_run(case, request):
    """Classical training is the min-max loop with every step global."""
    if case == "synth":
        corpus, budget = request.getfixturevalue("corpus"), 500
    else:
        corpus = LabeledCorpus.from_multisets({"aa": {b"abab": 2, b"cd": 4}, "bb": {b"abcd": 3}})
        budget = 50
    model, log = train_classical(corpus, budget)
    config = ParityConfig(budget, global_merges=budget, window_size=0, unit=NormUnit.BYTES)
    minmax_model, minmax_log = train_no_dev(corpus, config)
    assert log.stopped_early == (case == "stops-early")
    assert model.merges == minmax_model.merges
    records = []
    for step in minmax_log:
        record = step.to_record()
        del record["dev_tokens"]
        records.append(record)
    assert [step.to_record() for step in log] == records
    assert log.stopped_early == minmax_log.stopped_early
    assert log.stop_reason == minmax_log.stop_reason
    assert log.token_totals == minmax_log.token_totals
