"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import contextlib
import math
import random
import time

from parity_bpe import (
    NormUnit,
    ParityConfig,
    TokenizerModel,
    compression_rate,
    compute_cr,
    fertility,
    full_report,
    gini,
    renyi_entropy,
    train_classical,
    train_parity,
)

from .conftest import MERGE_BUDGET
from .oracles import audit_selection_windows, greedy_steps, pairwise_gini, store_ids


@contextlib.contextmanager
def criterion(num: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {num:2d} PASS  {description} ({elapsed:.1f}s)")


def test_criterion_1_losslessness_fuzz(classical_run, fuzz_strings):
    with criterion(1, "losslessness fuzz, 10k strings, trained + identity, < 30 s"):
        trained, _ = classical_run
        identity = TokenizerModel([])
        started = time.monotonic()
        for data in fuzz_strings:
            assert trained.decode(trained.encode(data)) == data
            assert identity.decode(identity.encode(data)) == data
        assert time.monotonic() - started < 30.0


def test_criterion_2_example_exactness():
    with criterion(2, "merges [(b,a),(ba,b)] on 'babab' -> [ba, bab], decode back"):
        model = TokenizerModel([(b"b", b"a"), (b"ba", b"b")])
        tokens = model.encode(b"babab")
        assert tokens == [b"ba", b"bab"]
        assert model.decode(tokens) == b"babab"


def test_criterion_3_greedy_oracle_equivalence():
    with criterion(3, "100 random corpora: every step matches brute-force recount"):
        rng = random.Random(1234)
        for trial in range(100):
            words = {}
            for _ in range(rng.randint(2, 50)):
                length = rng.randint(1, 8)
                word = bytes(rng.choice(b"abcde") for _ in range(length))
                words[word] = words.get(word, 0) + rng.randint(1, 12)
            budget = rng.randint(1, 10)
            from parity_bpe import LabeledCorpus

            _, log = train_classical(LabeledCorpus.from_multisets({"xx": words}), budget)
            expected = greedy_steps(words, budget)
            got = [(s.left, s.right, s.count) for s in log]
            assert got == expected, f"trial {trial}: {got} != {expected}"


def test_criterion_4_incremental_consistency(corpus, dev):
    with criterion(4, "incremental pair counts and dev CR table match recounts"):
        audits = []

        def audit(state, record):
            if record.step % 25 != 0:
                return
            # pair counts: from-scratch positional recount over current words
            # (each word's counts are sparse (lang_index, count) entries; a
            # dev-only word has none and adds to no training count), compared
            # as the store keeps it: one tuple of per-language counts per pair
            recount = {}
            for tokens, entries in zip(store_ids(state.train.words), state.train.counts):
                if not entries:
                    continue
                for i in range(len(tokens) - 1):
                    pair = (tokens[i], tokens[i + 1])
                    vec = recount.get(pair)
                    if vec is None:
                        vec = recount[pair] = [0] * len(state.langs)
                    for li, c in entries:
                        vec[li] += c
            assert {pair: tuple(vec) for pair, vec in recount.items()} == state.train.pair_counts
            # dev table: re-encode the dev corpus with the merges so far
            model = TokenizerModel(list(state.merges))
            for li, lang in enumerate(state.langs):
                fresh = sum(model.token_count(line) for line in dev.lines[lang])
                assert fresh == state.train.dev_totals[li]
            audits.append(record.step)

        config = ParityConfig(total_merges=MERGE_BUDGET, window_size=0)
        train_parity(corpus, dev, config, on_step=audit)
        assert len(audits) == MERGE_BUDGET // 25


def test_criterion_5_parity_fairness_analog(corpus, dev):
    with criterion(5, "Gini(parity) <= 0.5*Gini(classical), CR >= 0.90*classical, < 2 min"):
        started = time.monotonic()
        classical_model, _ = train_classical(corpus, MERGE_BUDGET)
        parity_model, _ = train_parity(
            corpus, dev, ParityConfig(total_merges=MERGE_BUDGET, window_size=0)
        )
        classical_report = full_report(classical_model, dev)
        parity_report = full_report(parity_model, dev)
        elapsed = time.monotonic() - started
        gini_classical = classical_report.global_metrics["gini_tokens_per_line"]
        gini_parity = parity_report.global_metrics["gini_tokens_per_line"]
        cr_classical = classical_report.global_metrics["cr_lines_ratio_of_sums"]
        cr_parity = parity_report.global_metrics["cr_lines_ratio_of_sums"]
        assert gini_parity <= 0.5 * gini_classical, (gini_parity, gini_classical)
        assert cr_parity >= 0.90 * cr_classical, (cr_parity, cr_classical)
        assert elapsed < 120.0


def test_criterion_6_hybrid_prefix_equality(hybrid_run, classical_run):
    with criterion(6, "hybrid split 0.5: first half byte-identical to classical prefix"):
        hybrid_model, _ = hybrid_run
        classical_model, _ = classical_run
        half = MERGE_BUDGET // 2
        assert hybrid_model.merges[:half] == classical_model.merges[:half]


def test_criterion_7_window_quota_audit(window_run):
    with criterion(7, "W=6, alpha=2, 3 langs: no 6-window exceeds 4 selections"):
        _, log = window_run
        selections = [(s.lang, s.fallback) for s in log if s.mode == "parity"]
        assert len(selections) == MERGE_BUDGET
        violations = audit_selection_windows(selections, window_size=6, quota=4)
        assert violations == []


def test_criterion_8_metric_oracles(classical_run, dev):
    with criterion(8, "gini, Renyi, CR-identity, and fertility*CR_words oracles"):
        assert gini([1, 1, 1]) == 0.0
        assert abs(gini([1, 2, 3]) - pairwise_gini([1, 2, 3])) <= 1e-9
        assert abs(gini([1, 2, 3]) - 2 / 9) <= 1e-9
        for alpha in (1, 2, 2.5, math.inf):
            assert abs(renyi_entropy([0.25] * 4, alpha) - 2.0) <= 1e-9
        rng = random.Random(55)
        alphas = [0.25, 0.5, 1, 1.5, 2, 2.5, 4, 8, 16, math.inf]
        for _ in range(100):
            weights = [rng.random() + 1e-12 for _ in range(rng.randint(2, 16))]
            total = sum(weights)
            probs = [w / total for w in weights]
            values = [renyi_entropy(probs, a) for a in alphas]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        identity = TokenizerModel([])
        docs = dev.lines[dev.languages[0]]
        rates = compression_rate(identity, docs, NormUnit.BYTES)
        assert rates.mean_of_ratios == 1.0 and rates.ratio_of_sums == 1.0
        model, _ = classical_run
        word_rates = compression_rate(model, docs, NormUnit.WORDS)
        assert abs(fertility(model, docs) * word_rates.ratio_of_sums - 1.0) <= 1e-9


def test_criterion_9_monotone_compression(parity_run, dev):
    with criterion(9, "dev token totals non-increasing at every step of a 500-merge run"):
        _, log = parity_run
        assert len(log) == MERGE_BUDGET
        identity_table = compute_cr(dev, TokenizerModel([]), NormUnit.LINES)
        previous = dict(identity_table.token_totals)
        for step in log:
            for lang, total in step.dev_tokens.items():
                assert total <= previous[lang], (step.step, lang)
            assert sum(step.dev_tokens.values()) <= sum(previous.values())
            previous = step.dev_tokens


def test_criterion_10_serialization_differential(tmp_path, classical_run, fuzz_strings):
    with criterion(10, "save->load differential encode: byte-identical id streams"):
        model, _ = classical_run
        path = tmp_path / "roundtrip.bpe"
        model.save(path)
        loaded = TokenizerModel.load(path)
        for data in fuzz_strings:
            assert loaded.encode_ids(data) == model.encode_ids(data)
