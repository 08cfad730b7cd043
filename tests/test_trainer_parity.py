import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_bpe import (
    ConfigError,
    CorpusError,
    CRTable,
    DataError,
    LabeledCorpus,
    NormUnit,
    ParallelDevCorpus,
    ParityConfig,
    TokenizerModel,
    TrainLog,
    compute_cr,
    load_parallel_dev,
    train_classical,
    train_no_dev,
    train_parity,
)
from parity_bpe.cli import main
from parity_bpe.trainer import MIN_PAIR_COUNT, TrainerState

from .oracles import (
    audit_selection_windows,
    global_pair_counts,
    lang_pair_counts,
    naive_parity_steps,
)


def dev_of(lines_by_lang: dict[str, list[bytes]]) -> ParallelDevCorpus:
    return ParallelDevCorpus(tuple(sorted(lines_by_lang)), lines_by_lang)


class TestParityConfig:
    def test_defaults_match_conventions(self):
        config = ParityConfig(total_merges=100)
        assert config.window_size == 100
        assert config.alpha == 2.0
        assert config.unit is NormUnit.LINES

    def test_with_split_half(self, tmp_path, synth_dir):
        model_out = tmp_path / "hybrid.bpe"
        code = main(
            ["train", "--parity", "--hybrid-split", "0.5", "--merges", "500",
             "--corpus", str(synth_dir / "manifest.json"), "--dev", str(synth_dir / "dev"),
             "--model-out", str(model_out)]
        )
        assert code == 0
        log = TrainLog.from_jsonl(str(model_out) + ".log.jsonl")
        assert sum(step.mode == "global" for step in log) == 250

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ParityConfig(total_merges=10, global_merges=11).validate()
        with pytest.raises(ConfigError):
            ParityConfig(total_merges=10, window_size=-1).validate()
        with pytest.raises(ConfigError):
            ParityConfig(total_merges=10, alpha=0).validate()
        with pytest.raises(ConfigError):
            train_no_dev(
                LabeledCorpus.from_multisets({"aa": {b"abab": 2}}),
                ParityConfig(total_merges=10, unit=NormUnit.LINES),
            )

    @pytest.mark.parametrize("field, value, message", [
        ("window_size", 2.5, "window size must be an integer, got 2.5"),
        ("window_size", True, "window size must be an integer, got True"),
        ("alpha", True, "alpha must be a real number, got True"),
        ("alpha", "2", "alpha must be a real number, got '2'"),
        ("alpha", 10**400, "alpha must be finite"),
        ("total_merges", 2.5, "merge budget must be an integer, got 2.5"),
        ("total_merges", True, "merge budget must be an integer, got True"),
        ("total_merges", "3", "merge budget must be an integer, got '3'"),
        ("global_merges", 1.5, "global merges must be an integer, got 1.5"),
        ("global_merges", True, "global merges must be an integer, got True"),
        ("unit", "furlongs", "unit must be a NormUnit, got 'furlongs'"),
        ("unit", "bytes", "unit must be a NormUnit, got 'bytes'"),
    ])
    def test_value_types_are_checked(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ParityConfig(**{"total_merges": 10, field: value}).validate()

    @pytest.mark.parametrize("split, total, global_merges", [
        (0.29, 100, 29), (0.57, 100, 57), (1 / 3, 7, 2), (0, 5, 0), (1, 5, 5), (0.5, 0, 0),
    ])
    def test_hybrid_floors_the_exact_decimal_share(self, split, total, global_merges):
        config = ParityConfig.hybrid(total, split, window_size=3, unit=NormUnit.BYTES)
        assert config == ParityConfig(total, global_merges, 3, unit=NormUnit.BYTES)

    @pytest.mark.parametrize("split, total, message", [
        (float("nan"), 10, "hybrid split must be in [0, 1], got nan"),
        (-0.1, 10, "hybrid split must be in [0, 1], got -0.1"),
        (1.5, 10, "hybrid split must be in [0, 1], got 1.5"),
        (True, 10, "hybrid split must be in [0, 1], got True"),
        ("0.5", 10, "hybrid split must be in [0, 1], got '0.5'"),
        (0.5, "10", "merge budget must be an integer, got '10'"),
        (0.5, -1, "merge budget must be >= 0, got -1"),
    ])
    def test_hybrid_rejects_a_bad_split_or_budget(self, split, total, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ParityConfig.hybrid(total, split)

    def test_quota_is_the_floor_of_the_exact_decimal(self):
        """alpha 1.4 with W 45 over 3 languages gives a limit of 21 picks; the
        float product 1.4 * 45 / 3 is 20.999..., whose floor would be 20."""
        words = [bytes(p) for p in product(b"abcdef", repeat=2)]
        corpus = LabeledCorpus.from_multisets({
            "aa": dict.fromkeys(words, 3),
            "bb": {b"XYXY": 5, b"ZWZW": 5},
            "cc": {b"1212": 5, b"3434": 5},
        })
        # aa's one dev line holds every word, so aa stays the worst compressed
        dev = dev_of({"aa": [b" ".join(words)], "bb": [b"XYXY"], "cc": [b"1212"]})
        _, log = train_parity(corpus, dev, ParityConfig(22, window_size=45, alpha=1.4))
        assert [(s.lang, s.fallback) for s in log] == [("aa", False)] * 21 + [("bb", False)]

class TestComputeCr:
    def test_identity_bytes_is_one(self, dev):
        table = compute_cr(dev, TokenizerModel([]), NormUnit.BYTES)
        for lang in dev.languages:
            assert table.cr(lang) == 1.0

    def test_lines_unit_is_lines_over_tokens(self):
        dev = dev_of({"aa": [b"ab cd", b"ab", b"cd", b"ab"]})
        model = TokenizerModel([])
        table = compute_cr(dev, model, NormUnit.LINES)
        total_tokens = sum(model.token_count(line) for line in dev.lines["aa"])
        assert table.unit_totals["aa"] == 4
        assert table.cr("aa") == 4 / total_tokens

    def test_four_lines_forty_tokens(self):
        # construct 4 lines of 10 bytes each: identity model gives 40 tokens
        dev = dev_of({"aa": [b"0123456789"] * 4})
        table = compute_cr(dev, TokenizerModel([]), NormUnit.LINES)
        assert table.cr("aa") == 0.1

    def test_parallel_lines_unit_identical_across_langs(self, dev):
        table = compute_cr(dev, TokenizerModel([]), NormUnit.LINES)
        assert len({table.unit_totals[lang] for lang in dev.languages}) == 1

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.lists(st.sampled_from([b"ab", b"c", b" ", b"\r"]), min_size=1, max_size=5)
                 .map(b"".join), min_size=n, max_size=n), min_size=1, max_size=3)))
    def test_lines_with_cr_count_one_each(self, lines_by_lang):
        dev = dev_of({lang: lines for lang, lines in zip(("aa", "bb", "cc"), lines_by_lang)})
        model = TokenizerModel([(b"a", b"b"), (b"\r", b"ab")])
        table = compute_cr(dev, model, NormUnit.LINES)
        assert table.unit_totals == dict.fromkeys(dev.languages, dev.n_lines)

    def test_a_dev_record_with_cr_ties_its_aligned_line(self, tmp_path):
        """Aligned one-line records of five bytes each have equal rates, so the
        first parity step goes to the first code, not to the record with a CR."""
        (tmp_path / "aa.txt").write_bytes(b"ab\rcd\r\n")
        (tmp_path / "bb.txt").write_bytes(b"abxcd\n")
        dev = load_parallel_dev(tmp_path, ["aa", "bb"])
        table = compute_cr(dev, TokenizerModel([]), NormUnit.LINES)
        assert table.cr("aa") == table.cr("bb") == 1 / 5
        corpus = LabeledCorpus.from_multisets({"aa": {b"abab": 2}, "bb": {b"cdcd": 2}})
        _, log = train_parity(corpus, dev, ParityConfig(total_merges=1, window_size=0))
        assert log[0].lang == "aa"

    def test_labeled_corpus_bytes(self):
        corpus = LabeledCorpus.from_multisets({"aa": {b"abab": 2}})
        table = compute_cr(corpus, TokenizerModel([(b"a", b"b")]), NormUnit.BYTES)
        assert table.unit_totals["aa"] == 8
        assert table.token_totals["aa"] == 4
        assert table.cr("aa") == 2.0

    def test_zero_unit_total_rejected(self):
        with pytest.raises(DataError, match="zero"):
            CRTable(NormUnit.LINES, ("aa",), {"aa": 0}, {"aa": 5})


class TestTrainParity:
    def test_pure_global_prelude_equals_classical(self, corpus, dev, classical_run):
        config = ParityConfig(total_merges=120, global_merges=120, window_size=0)
        model, log = train_parity(corpus, dev, config)
        classical_model, _ = classical_run
        assert model.merges == classical_model.merges[:120]
        assert all(step.mode == "global" for step in log)

    def test_hybrid_prefix_equality(self, hybrid_run, classical_run):
        hybrid_model, hybrid_log = hybrid_run
        classical_model, _ = classical_run
        assert hybrid_model.merges[:250] == classical_model.merges[:250]
        assert [s.mode for s in hybrid_log[:250]] == ["global"] * 250
        assert [s.mode for s in hybrid_log[250:]] == ["parity"] * (len(hybrid_log) - 250)

    def test_two_languages_equalize(self, tmp_path):
        from parity_bpe import SyntheticSpec, generate_synthetic, load_labeled_corpus, load_parallel_dev

        spec = SyntheticSpec.default(["aa", "bb"], [0.9, 0.1], dev_lines=60)
        spec.total_train_bytes = 120_000
        generate_synthetic(spec, seed=5, out_dir=tmp_path)
        corpus = load_labeled_corpus(tmp_path / "manifest.json")
        dev = load_parallel_dev(tmp_path / "dev", ["aa", "bb"])
        config = ParityConfig(total_merges=300, window_size=0)
        model, log = train_parity(corpus, dev, config)
        table = compute_cr(dev, model, NormUnit.LINES)
        crs = [table.cr(lang) for lang in dev.languages]
        assert abs(crs[0] - crs[1]) / max(crs) < 0.10
        tail = [step.lang for step in log[-60:]]
        assert set(tail) == {"aa", "bb"}

    def test_selection_follows_argmin_of_snapshot(self, parity_run):
        _, log = parity_run
        for step in log:
            assert step.mode == "parity"
            if step.fallback or step.skipped:
                continue
            argmin = min(step.cr_snapshot.items(), key=lambda kv: (kv[1], kv[0]))[0]
            assert step.lang == argmin

    def test_skipped_languages_precede_choice_in_cr_order(self, parity_run):
        _, log = parity_run
        for step in log:
            for skipped in step.skipped:
                key = (step.cr_snapshot[skipped], skipped)
                assert key <= (step.cr_snapshot[step.lang], step.lang)

    def test_dev_token_totals_match_reencode(self, corpus, dev):
        config = ParityConfig(total_merges=80, window_size=0)
        model, log = train_parity(corpus, dev, config)
        table = compute_cr(dev, model, NormUnit.LINES)
        assert log[-1].dev_tokens == table.token_totals

    def test_merge_decreases_selected_language_tokens(self, parity_run):
        _, log = parity_run
        for step in log:
            assert step.replacements[step.lang] >= 1

    def test_merge_applied_to_all_languages(self):
        # overlapping alphabets: the pair exists in both languages
        corpus = LabeledCorpus.from_multisets(
            {"aa": {b"xy": 10}, "bb": {b"xy": 2, b"qxyq": 1}}
        )
        dev = dev_of({"aa": [b"xy xy"], "bb": [b"qxyq"]})
        config = ParityConfig(total_merges=1, window_size=0)
        model, log = train_parity(corpus, dev, config)
        assert log[0].left == b"x" and log[0].right == b"y"
        assert log[0].replacements["aa"] >= 1 and log[0].replacements["bb"] >= 1
        assert model.encode(b"qxyq") == [b"q", b"xy", b"q"]

    def test_window_quota_respected(self, window_run):
        _, log = window_run
        selections = [(s.lang, s.fallback) for s in log if s.mode == "parity"]
        assert audit_selection_windows(selections, window_size=6, quota=4) == []

    def test_dev_missing_language_rejected(self, corpus):
        dev = dev_of({"aa": [b"x"], "bb": [b"y"]})
        config = ParityConfig(total_merges=5, window_size=0)
        with pytest.raises(CorpusError, match="missing languages"):
            train_parity(corpus, dev, config)

    def test_dev_only_language_is_not_measured(self):
        corpus = LabeledCorpus.from_multisets({"aa": {b"abab": 2}, "bb": {b"cdcd": 2}})
        dev = dev_of({"aa": [b"ab"], "bb": [b"cd cd"], "zz": [b"zz"]})
        _, log = train_parity(corpus, dev, ParityConfig(total_merges=3, window_size=0))
        assert log.unit_totals.keys() == log.token_totals.keys() == {"aa", "bb"}

    def test_early_stop_when_no_language_has_pairs(self):
        corpus = LabeledCorpus.from_multisets({"aa": {b"ab": 1}, "bb": {b"cd": 1}})
        dev = dev_of({"aa": [b"ab"], "bb": [b"cd"]})
        config = ParityConfig(total_merges=5, window_size=0)
        model, log = train_parity(corpus, dev, config)
        assert len(model.merges) == 0
        assert log.stopped_early

    def test_skip_to_next_language_when_shard_exhausted(self):
        # 'bb' has the worse CR but no pair with count >= 2
        corpus = LabeledCorpus.from_multisets(
            {"aa": {b"xyxy": 5}, "bb": {b"pq": 1}}
        )
        dev = dev_of({"aa": [b"xy"], "bb": [b"pqpqpqpq"]})
        config = ParityConfig(total_merges=1, window_size=0)
        _, log = train_parity(corpus, dev, config)
        assert log[0].lang == "aa"
        assert log[0].skipped == ["bb"]


def _argmax(counts: dict):
    """Brute-force selection: (left, right, count) of the highest count, then the
    smallest byte spans, or None when no count reaches ``MIN_PAIR_COUNT``."""
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]), default=None)
    if best is None or best[1] < MIN_PAIR_COUNT:
        return None
    (left, right), count = best
    return left, right, count


@pytest.mark.parametrize("global_merges", [0, 150], ids=["parity", "hybrid"])
def test_each_pick_is_the_argmax_of_its_counts(corpus, dev, global_merges):
    """Each merge is the brute-force argmax of its heap's counts before the merge.

    A parity step picks from the chosen language's counts and a global step
    from the summed counts; a language skipped before the choice has no
    selectable pair. Merges chosen for one language shrink the counts of the
    others, so a language heap holds entries above counts that went down.
    """

    def counts(state):
        per_lang = {lang: lang_pair_counts(state, lang) for lang in state.langs}
        return per_lang, global_pair_counts(state)

    before = [counts(TrainerState(corpus))]
    seen = Counter()

    def audit(state, step):
        per_lang, summed = before[0]
        if step.mode == "global":
            assert (step.left, step.right, step.count) == _argmax(summed)
        else:
            assert (step.left, step.right, step.count) == _argmax(per_lang[step.lang])
            assert all(_argmax(per_lang[lang]) is None for lang in step.skipped)
        seen[step.mode, step.lang] += 1
        before[0] = counts(state)

    config = ParityConfig(total_merges=300, global_merges=global_merges, window_size=100)
    _, log = train_parity(corpus, dev, config, on_step=audit)
    assert sum(seen.values()) == len(log) == 300
    assert seen["global", None] == global_merges
    assert len({lang for mode, lang in seen if mode == "parity"}) > 1


class TestTrainNoDev:
    def test_requires_training_as_dev(self, corpus):
        config = ParityConfig(total_merges=5, window_size=0)
        with pytest.raises(ConfigError):
            train_no_dev(corpus, config)

    def test_single_language_degenerates_to_classical(self):
        corpus = LabeledCorpus.from_multisets(
            {"solo": {b"abab": 4, b"abc": 3, b"cab": 2}}
        )
        config = ParityConfig(
            total_merges=6, window_size=0, unit=NormUnit.BYTES
        )
        nodev_model, nodev_log = train_no_dev(corpus, config)
        classical_model, _ = train_classical(corpus, 6)
        assert nodev_model.merges == classical_model.merges
        assert all(step.lang == "solo" for step in nodev_log)

    def test_symmetric_corpus_alternates_by_tiebreak(self):
        # 'bb' is 'aa' with bytes relabeled: identical statistics
        aa = {b"abab": 6, b"abc": 3}
        bb = {w.translate(bytes.maketrans(b"abc", b"nop")): c for w, c in aa.items()}
        corpus = LabeledCorpus.from_multisets({"aa": aa, "bb": bb})
        config = ParityConfig(
            total_merges=6, window_size=0, unit=NormUnit.BYTES
        )
        _, log = train_no_dev(corpus, config)
        assert [s.lang for s in log] == ["aa", "bb", "aa", "bb", "aa", "bb"]

    def test_cr_table_matches_bytes_recompute(self, corpus):
        config = ParityConfig(
            total_merges=60, window_size=0, unit=NormUnit.BYTES
        )
        model, log = train_no_dev(corpus, config)
        table = compute_cr(corpus, model, NormUnit.BYTES)
        assert log[-1].dev_tokens == table.token_totals
        snapshot_crs = log[-1].cr_snapshot
        # snapshot is taken before the final merge; recompute with the prefix
        prefix_model = TokenizerModel(list(model.merges)[:-1])
        prefix_table = compute_cr(corpus, prefix_model, NormUnit.BYTES)
        for lang in corpus.languages:
            assert snapshot_crs[lang] == pytest.approx(prefix_table.cr(lang), abs=0)


# Greedy training is prefix-consistent: the k-merge run makes the first k
# choices of the n-merge run, so one trained model stands for every smaller
# vocabulary size. Hybrid training is not: its global prelude is
# floor(split * budget) steps, so its length depends on the budget.
PREFIX_RUNS = {
    "classical": lambda corpus, dev, n: train_classical(corpus, n),
    "no-dev": lambda corpus, dev, n: train_no_dev(
        corpus, ParityConfig(n, window_size=6, unit=NormUnit.BYTES)),
    "window-0": lambda corpus, dev, n: train_parity(corpus, dev, ParityConfig(n, window_size=0)),
    "window-6": lambda corpus, dev, n: train_parity(
        corpus, dev, ParityConfig(n, window_size=6, alpha=2)),
}


@pytest.mark.parametrize("mode", list(PREFIX_RUNS))
def test_a_smaller_budget_trains_a_prefix(corpus, dev, mode):
    (short_model, short_log), (model, log) = (PREFIX_RUNS[mode](corpus, dev, n) for n in (60, 120))
    assert len(log) == 120
    assert short_model.merges == model.merges[:60]
    assert [step.to_record() for step in short_log] == [step.to_record() for step in log[:60]]


LANGS = ("aa", "bb", "cc", "dd")
ALPHABETS = (b"ab", b"abc", b"ab ", b"a b  c")
# Drawn as plain data, mapped onto an alphabet and a word pool below.
RAW_WORDS = st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=6)
WORD_COUNTS = st.lists(st.integers(0, 4), min_size=6, max_size=6)
DEV_WORDS = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3), min_size=3, max_size=3)


@st.composite
def parity_cases(draw):
    """A small corpus, its dev lines and a config: words shared between
    languages, dev-only words, and alphabets with and without spaces."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    pool = list(dict.fromkeys(bytes(alphabet[b % len(alphabet)] for b in raw)
                              for raw in draw(RAW_WORDS)))
    n_train = draw(st.integers(1, len(pool)))  # the rest are dev-only
    langs = LANGS[: draw(st.integers(1, 4))]
    n_lines = draw(st.integers(1, 3))
    multisets, dev_lines = {}, {}
    for lang in langs:
        top = draw(st.sampled_from([1, 4]))  # with every count 1, a language soon has no pair
        counts = zip(pool[:n_train], draw(WORD_COUNTS))
        multisets[lang] = {w: min(c, top) for w, c in counts if c} or {pool[0]: 1}
        dev_lines[lang] = [b"".join(pool[i % len(pool)] for i in line)
                           for line in draw(DEV_WORDS)[:n_lines]]
    no_dev = draw(st.booleans())
    unit = NormUnit.BYTES if no_dev else draw(st.sampled_from(list(NormUnit)))
    total = draw(st.sampled_from(range(1, 13)))
    config = ParityConfig(total, global_merges=draw(st.just(0) | st.sampled_from(range(total + 1))),
                          window_size=draw(st.sampled_from([0, 1, 2, 3, 5])),
                          alpha=draw(st.sampled_from([0.5, 1, 1.5, 2])), unit=unit)
    return LabeledCorpus.from_multisets(multisets), dev_lines, config, no_dev


@settings(max_examples=200, deadline=None)
@given(parity_cases())
def test_parity_training_matches_the_brute_force_trace(case):
    """Every field of every step is the oracle's, which recounts everything each step."""
    corpus, dev_lines, config, no_dev = case
    if no_dev:
        _, log = train_no_dev(corpus, config)
    else:
        _, log = train_parity(corpus, dev_of(dev_lines), config)
    expected = naive_parity_steps(corpus, dev_lines, config, no_dev=no_dev)
    assert [vars(step) for step in log] == expected
    assert log.stopped_early == (len(expected) < config.total_merges)
