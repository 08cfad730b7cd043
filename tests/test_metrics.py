import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parity_bpe import (
    DataError,
    GoldSegmentation,
    MetricReport,
    NormUnit,
    ParallelDevCorpus,
    TokenizerModel,
    UnigramDistribution,
    avg_token_rank,
    compression_rate,
    fertility,
    full_report,
    gini,
    load_gold_tsv,
    morph_boundary_scores,
    renyi_entropy,
    type_token_ratio,
    unit_length,
    vocab_utilization,
)

from .oracles import (
    naive_avg_token_rank,
    naive_compression_rate,
    naive_fertility,
    naive_type_token_ratio,
    naive_unigram_distribution,
    naive_vocab_utilization,
    pairwise_gini,
    ten_pass_full_report,
)

IDENTITY = TokenizerModel([])
# Merges over the pieces of _REPORT_LINE, including a two-byte UTF-8 char.
MERGED = TokenizerModel(
    [(b"a", b"b"), (b"ab", b"a"), (b" ", b"ab"), (b"\xc3", b"\xa9"), (b"c", b"a"), (b"ca", b"f")]
)
# Pieces shared by every language: spaces, tabs, a CR and a LF inside a
# line, a two-byte char, and bytes that are not UTF-8 (the chars fallback).
_REPORT_LINE = st.lists(
    st.sampled_from(
        [b"ab", b"aba", b"c", b"caf\xc3\xa9", b" ", b"  ", b"\t", b"\r", b"\n", b"\xff", b"\x80",
         b"\xc3"]
    ),
    min_size=1,
    max_size=8,
).map(b"".join)
# A dev record as its loader reads it: no LF, but CRs anywhere inside.
_CR_LINE = st.lists(st.sampled_from([b"ab", b"c", b" ", b"\r", b"\r\r", b"caf\xc3\xa9"]),
                    min_size=1, max_size=6).map(b"".join)
# Documents for the single-metric functions: report lines, the empty
# document, whitespace-only documents and invalid UTF-8 on its own.
_DOCS = st.lists(
    st.one_of(_REPORT_LINE, st.sampled_from([b"", b" ", b"\t\n ", b"\r\n", b"\xff\x80"])),
    max_size=4,
)
_GOLD = [GoldSegmentation(b"aba", frozenset({2})), GoldSegmentation(b"caf\xc3\xa9", frozenset({3}))]


def dev_of(lines_by_lang):
    return ParallelDevCorpus(tuple(sorted(lines_by_lang)), lines_by_lang)


class TestCompressionRate:
    def test_identity_bytes_is_one_both_estimators(self):
        rates = compression_rate(IDENTITY, [b"hello", b"xy"], NormUnit.BYTES)
        assert rates.mean_of_ratios == 1.0
        assert rates.ratio_of_sums == 1.0

    def test_estimators_differ_on_skewed_docs(self):
        # equal byte lengths, per-document ratios 4.0 and 2.0
        model = TokenizerModel([(b"a", b"b"), (b"ab", b"ab"), (b"c", b"d")])
        docs = [b"abababab", b"cdcdcdcd"]
        assert model.token_count(docs[0]) == 2  # ratio 4.0
        assert model.token_count(docs[1]) == 4  # ratio 2.0
        rates = compression_rate(model, docs, NormUnit.BYTES)
        assert rates.mean_of_ratios == pytest.approx(3.0)
        assert rates.ratio_of_sums == pytest.approx(16 / 6)

    def test_paper_example_tokens(self):
        model = TokenizerModel([(b"b", b"a"), (b"ba", b"b")])
        rates = compression_rate(model, [b"babab"], NormUnit.BYTES)
        assert rates.mean_of_ratios == 2.5
        assert rates.ratio_of_sums == 2.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            compression_rate(IDENTITY, [], NormUnit.BYTES)

    def test_zero_token_document_rejected(self):
        with pytest.raises(DataError, match="zero-token"):
            compression_rate(IDENTITY, [b""], NormUnit.BYTES)


class TestFertility:
    def test_one_token_per_word(self):
        model = TokenizerModel([(b"a", b"b"), (b" ", b"ab")])
        assert fertility(model, [b"ab", b"ab ab"]) == pytest.approx(1.0)

    def test_single_word_three_tokens(self):
        assert fertility(IDENTITY, [b"und"]) == 3.0

    def test_ratio_of_sums_against_recount(self, classical_run, dev):
        model, _ = classical_run
        docs = [line for lang in dev.languages for line in dev.lines[lang]]
        tokens = sum(len(model.encode(d)) for d in docs)
        words = sum(unit_length(d, NormUnit.WORDS) for d in docs)
        assert fertility(model, docs) == pytest.approx(tokens / words)

    def test_inverse_of_word_unit_cr(self, classical_run, dev):
        model, _ = classical_run
        docs = dev.lines[dev.languages[0]]
        rates = compression_rate(model, docs, NormUnit.WORDS)
        assert fertility(model, docs) * rates.ratio_of_sums == pytest.approx(1.0)


class TestVocabUtilization:
    def test_fraction_of_vocab(self):
        model = TokenizerModel([(b"a", b"b")] + [(b"ab", bytes([c])) for c in range(44)])
        # only "ab" observed out of 256 + 45 vocab entries... encode(b"ab") -> [b"ab"]
        assert vocab_utilization(model, [b"ab"]) == 1 / (256 + 45)

    def test_identity_all_bytes(self):
        docs = [bytes(range(256))]
        assert vocab_utilization(IDENTITY, docs) == 1.0

    def test_parity_at_least_classical_on_low_resource(self, classical_run, parity_run, dev):
        cmodel, _ = classical_run
        pmodel, _ = parity_run
        low = dev.lines["cc"]
        assert vocab_utilization(pmodel, low) >= vocab_utilization(cmodel, low)


class TestTypeTokenRatio:
    def test_all_distinct(self):
        assert type_token_ratio(IDENTITY, [b"abcd"]) == 1.0

    def test_single_repeated(self):
        assert type_token_ratio(IDENTITY, [b"a" * 10]) == 0.1

    def test_matches_recount(self, classical_run, dev):
        model, _ = classical_run
        docs = dev.lines["aa"]
        stream = [t for d in docs for t in model.encode(d)]
        assert type_token_ratio(model, docs) == len(set(stream)) / len(stream)


class TestAvgTokenRank:
    def test_uniform_three_tokens(self):
        assert avg_token_rank(IDENTITY, [b"abc"]) == 2.0

    def test_single_token(self):
        assert avg_token_rank(IDENTITY, [b"aaaa"]) == 1.0

    def test_matches_sort_oracle(self):
        rng = random.Random(3)
        counts = {bytes([i]): rng.randint(1, 40) for i in range(65, 90)}
        dist = UnigramDistribution(dict(counts), sum(counts.values()))
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        expect = (
            sum((i + 1) * c for i, (_, c) in enumerate(ordered)) / dist.total
        )
        assert avg_token_rank(IDENTITY, [], dist=dist) == pytest.approx(expect)

    def test_range_invariant(self, classical_run, dev):
        model, _ = classical_run
        docs = dev.lines["bb"]
        dist = UnigramDistribution.from_texts(model, docs)
        rank = avg_token_rank(model, docs)
        assert 1.0 <= rank <= len(dist.freq)


class TestRenyiEntropy:
    def test_uniform_four_is_two_bits(self):
        for alpha in (1, 2, 2.5, math.inf):
            assert renyi_entropy([0.25] * 4, alpha) == pytest.approx(2.0, abs=1e-9)

    def test_fair_coin_any_alpha(self):
        for alpha in (0.5, 1, 2, 3.7, math.inf):
            assert renyi_entropy([0.5, 0.5], alpha) == pytest.approx(1.0, abs=1e-9)

    def test_skewed_alpha_two(self):
        # sum p^2 = 0.625
        assert renyi_entropy([0.75, 0.25], 2) == pytest.approx(-math.log2(0.625), abs=1e-12)
        # numerical limit cross-check around alpha=2
        lo = renyi_entropy([0.75, 0.25], 2 - 1e-7)
        hi = renyi_entropy([0.75, 0.25], 2 + 1e-7)
        assert lo >= hi
        assert renyi_entropy([0.75, 0.25], 2) == pytest.approx(lo, abs=1e-5)

    def test_invalid_alpha(self):
        with pytest.raises(DataError):
            renyi_entropy([0.5, 0.5], 0)
        with pytest.raises(DataError):
            renyi_entropy([0.5, 0.5], -1)
        with pytest.raises(DataError):
            renyi_entropy([0.5, 0.5], math.nan)

    @pytest.mark.parametrize("alpha", [1e4, 1e308])
    def test_large_alpha_tends_to_min_entropy(self, alpha):
        # every p**alpha underflows to 0.0 here
        assert renyi_entropy([0.5, 0.25, 0.25], alpha) == pytest.approx(1.0, abs=1e-3)

    def test_non_increasing_in_alpha(self):
        rng = random.Random(8)
        alphas = [0.5, 1, 1.5, 2, 2.5, 4, 8, math.inf]
        for _ in range(100):
            weights = [rng.random() + 1e-9 for _ in range(rng.randint(2, 12))]
            total = sum(weights)
            probs = [w / total for w in weights]
            values = [renyi_entropy(probs, a) for a in alphas]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-9

    def test_bounded_by_log_support(self):
        probs = [0.5, 0.3, 0.2]
        for alpha in (0.5, 1, 2, math.inf):
            assert 0.0 <= renyi_entropy(probs, alpha) <= math.log2(3) + 1e-12


class TestGini:
    def test_equal_costs_zero(self):
        assert gini([1, 1, 1]) == 0.0

    def test_one_two_three(self):
        assert gini([1, 2, 3]) == pytest.approx(2 / 9, abs=1e-9)
        assert gini([1, 2, 3]) == pytest.approx(pairwise_gini([1, 2, 3]), abs=1e-9)

    def test_single_cost_zero(self):
        assert gini([5.0]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            gini([1.0, 0.0])
        with pytest.raises(DataError):
            gini([])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1000), min_size=1, max_size=12),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_scale_and_permutation_invariance(self, costs, k):
        base = gini(costs)
        assert 0.0 <= base < 1.0
        assert gini([k * c for c in costs]) == pytest.approx(base, abs=1e-9)
        assert gini(list(reversed(costs))) == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.floats(min_value=0.01, max_value=1000), min_size=1, max_size=10))
    def test_matches_pairwise_oracle(self, costs):
        assert gini(costs) == pytest.approx(pairwise_gini(costs), abs=1e-9)


class TestMorphBoundaries:
    def test_partial_recall(self):
        model = TokenizerModel(
            [(b"u", b"n"), (b"un", b"h"), (b"unh", b"a"), (b"unha", b"p"),
             (b"unhap", b"p"), (b"unhapp", b"i"), (b"unhappi", b"n"),
             (b"unhappin", b"e"), (b"unhappine", b"s"), (b"unhappines", b"s")]
        )
        # tokens: ["un...I mean full word"] -- construct simpler below
        gold = [GoldSegmentation(b"unhappiness", frozenset({2, 7}))]
        scores = morph_boundary_scores(model, gold)
        # model merges the whole word into one token: no predicted boundaries
        assert scores.precision == 1.0
        assert scores.recall == 0.0

    def test_two_token_split(self):
        merges = [(b"u", b"n")]
        word = b"unhappiness"
        # build merges concatenating "happiness" into one token
        rest = b"happiness"
        acc = rest[:1]
        for ch in rest[1:]:
            merges.append((acc, bytes([ch])))
            acc += bytes([ch])
        model = TokenizerModel(merges)
        assert model.encode(word) == [b"un", b"happiness"]
        gold = [GoldSegmentation(word, frozenset({2, 7}))]
        scores = morph_boundary_scores(model, gold)
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    def test_exact_segmentation_perfect(self):
        gold = [GoldSegmentation(b"ab", frozenset({1}))]
        scores = morph_boundary_scores(IDENTITY, gold)
        assert scores == (1.0, 1.0, 1.0)

    def test_boundary_outside_word_rejected(self):
        with pytest.raises(DataError, match="outside word"):
            GoldSegmentation(b"ab", frozenset({2}))

    def test_gold_tsv_loader(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("unhappiness\tun|happi|ness\nab\tab\n")
        gold = load_gold_tsv(path)
        assert gold[0].boundaries == frozenset({2, 7})
        assert gold[1].boundaries == frozenset()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("abc\tab|d", "segmentation does not concatenate to the word"),
            ("abc\ta||bc", "empty segment"),
            ("ab\tab|", "empty segment"),
            ("ab\t|ab", "empty segment"),
        ],
        ids=["concatenation", "empty-inner", "empty-last", "empty-first"],
    )
    def test_gold_tsv_mismatch_rejected(self, tmp_path, line, message):
        path = tmp_path / "gold.tsv"
        path.write_text(f"ab\ta|b\n{line}\n")
        with pytest.raises(DataError) as raised:
            load_gold_tsv(path)
        assert str(raised.value) == f"{path}:2: {message}"


def _outcome(function, *args):
    """What a call gives: its value, or the type and message of what it raised."""
    try:
        value = function(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, UnigramDistribution):  # the order too: it orders the Renyi sum
        return list(value.freq.items()), value.total
    return value


class TestViewsMatchOracles:
    """Each single-metric function gives what its independent body gives,
    or raises the same exception with the same message."""

    @pytest.mark.parametrize("unit", [*NormUnit, *(unit.value for unit in NormUnit), "furlongs"])
    @given(model=st.sampled_from([IDENTITY, MERGED]), docs=_DOCS)
    @example(model=MERGED, docs=[])
    @example(model=MERGED, docs=[b""])
    @example(model=MERGED, docs=[b"ab", b" \t"])
    def test_compression_rate(self, unit, model, docs):
        expected = _outcome(naive_compression_rate, model, docs, unit)
        assert _outcome(compression_rate, model, docs, unit) == expected

    @pytest.mark.parametrize(
        "view, oracle",
        [
            (fertility, naive_fertility),
            (vocab_utilization, naive_vocab_utilization),
            (type_token_ratio, naive_type_token_ratio),
            (avg_token_rank, naive_avg_token_rank),
            (UnigramDistribution.from_texts, naive_unigram_distribution),
        ],
        ids=["fertility", "vocab_utilization", "type_token_ratio", "avg_token_rank", "from_texts"],
    )
    @given(model=st.sampled_from([IDENTITY, MERGED]), docs=_DOCS)
    @example(model=MERGED, docs=[])
    @example(model=MERGED, docs=[b""])
    @example(model=MERGED, docs=[b"", b"ab"])
    @example(model=MERGED, docs=[b" ", b"\xff"])
    def test_view(self, view, oracle, model, docs):
        assert _outcome(view, model, docs) == _outcome(oracle, model, docs)


class TestFullReport:
    def test_identity_closed_form(self, dev):
        report = full_report(IDENTITY, dev)
        assert report.global_metrics["cr_bytes_mean_of_ratios"] == 1.0
        assert report.global_metrics["cr_bytes_ratio_of_sums"] == 1.0
        docs = [line for lang in dev.languages for line in dev.lines[lang]]
        words = sum(unit_length(d, NormUnit.WORDS) for d in docs)
        total_bytes = sum(len(d) for d in docs)
        assert report.global_metrics["fertility"] == pytest.approx(total_bytes / words)
        byte_costs = [
            sum(len(line) for line in dev.lines[lang]) / dev.n_lines
            for lang in dev.languages
        ]
        assert report.global_metrics["gini_tokens_per_line"] == pytest.approx(
            gini(byte_costs)
        )

    def test_parity_beats_classical_gini(self, classical_run, parity_run, dev):
        creport = full_report(classical_run[0], dev)
        preport = full_report(parity_run[0], dev)
        assert (
            preport.global_metrics["gini_tokens_per_line"]
            < creport.global_metrics["gini_tokens_per_line"]
        )

    def test_json_roundtrip(self, classical_run, dev):
        report = full_report(classical_run[0], dev, provenance={"model": "m.bpe"})
        restored = MetricReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()

    def test_per_language_sections(self, classical_run, dev):
        report = full_report(classical_run[0], dev)
        assert set(report.per_language) == set(dev.languages)
        for stats in report.per_language.values():
            assert 0.0 < stats["vocab_utilization"] <= 1.0
            assert stats["tokens_per_line"] > 0

    @given(
        lines_by_lang=st.integers(1, 4).flatmap(
            lambda n_langs: st.integers(1, 5).flatmap(
                lambda n_lines: st.lists(
                    st.lists(_REPORT_LINE, min_size=n_lines, max_size=n_lines),
                    min_size=n_langs,
                    max_size=n_langs,
                )
            )
        ),
        model=st.sampled_from([IDENTITY, MERGED]),
        renyi_alpha=st.sampled_from([1, 2.5, math.inf]),
        gold=st.sampled_from([None, _GOLD]),
    )
    def test_matches_ten_pass_oracle(self, lines_by_lang, model, renyi_alpha, gold):
        dev = dev_of({f"l{i}": lines for i, lines in enumerate(lines_by_lang)})
        report = full_report(model, dev, renyi_alpha, gold, {"model": "m.bpe"})
        expected = ten_pass_full_report(model, dev, renyi_alpha, gold, {"model": "m.bpe"})
        assert report.to_json() == expected.to_json()

    def test_matches_ten_pass_oracle_on_synthetic_dev(self, classical_run, parity_run, dev):
        for model in (classical_run[0], parity_run[0]):
            assert full_report(model, dev).to_json() == ten_pass_full_report(model, dev).to_json()

    @pytest.mark.parametrize(
        "lines_by_lang, renyi_alpha",
        [
            ({"aa": [b""]}, 2.5),
            ({"aa": [b"", b""], "bb": [b"x", b""]}, 2.5),
            ({"aa": [b"x", b""], "bb": [b"", b""]}, 2.5),
            ({"aa": [b"x", b"y"], "bb": [b"", b"y"]}, 2.5),
            ({"aa": [b"x", b"y"], "bb": [b"", b"y"]}, math.nan),
            ({"aa": [b"x", b""], "bb": [b"x", b"y"]}, math.nan),
        ],
    )
    def test_empty_document_error_matches_oracle(self, lines_by_lang, renyi_alpha):
        dev = dev_of(lines_by_lang)
        with pytest.raises(DataError) as expected:
            ten_pass_full_report(MERGED, dev, renyi_alpha)
        with pytest.raises(DataError) as raised:
            full_report(MERGED, dev, renyi_alpha)
        assert str(raised.value) == str(expected.value)

    @given(
        lines_by_lang=st.integers(1, 3).flatmap(
            lambda n_lines: st.lists(
                st.lists(_CR_LINE, min_size=n_lines, max_size=n_lines), min_size=1, max_size=3
            )
        ),
        model=st.sampled_from([IDENTITY, MERGED]),
    )
    def test_a_dev_record_is_one_line(self, lines_by_lang, model):
        """A ``\\r`` inside a dev record does not end a line: the lines rate is
        the record count over the tokens, per language and pooled."""
        dev = dev_of({f"l{i}": lines for i, lines in enumerate(lines_by_lang)})
        report = full_report(model, dev)
        tokens = {lang: sum(map(model.token_count, dev.lines[lang])) for lang in dev.languages}
        for lang in dev.languages:
            assert report.per_language[lang]["cr_lines_ratio_of_sums"] == dev.n_lines / tokens[lang]
        pooled = len(dev.languages) * dev.n_lines / sum(tokens.values())
        assert report.global_metrics["cr_lines_ratio_of_sums"] == pooled

    def test_tokenizes_each_line_once(self, classical_run, dev, monkeypatch):
        model = TokenizerModel(classical_run[0].merges)
        encode_ids = model.encode_ids
        seen = []
        monkeypatch.setattr(model, "encode_ids", lambda doc: seen.append(doc) or encode_ids(doc))
        monkeypatch.setattr(model, "token_count", None)  # a call would fail
        full_report(model, dev)
        assert seen == [line for lang in dev.languages for line in dev.lines[lang]]
