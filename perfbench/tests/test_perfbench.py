"""Tests of the benchmark itself, on the tiny sizes (seconds per workload).

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

import contextlib
import io
import json

import pytest

from perfbench import ROOT  # first: puts src/ on sys.path
from perfbench import checks, run, tracing
from perfbench.workloads import WORKLOADS

from parity_bpe.tokenizer import TokenizerModel

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _current(dotted: str):
    owner, name = tracing.resolve(dotted)
    if not isinstance(owner, type):
        return getattr(owner, name)
    raw = vars(owner)[name]
    return getattr(raw, "__func__", raw)  # the function inside a classmethod


@pytest.fixture(scope="module")
def results():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def test_workloads_are_the_declared_ones():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and "absent" not in m, name


def test_traced_run_shows_the_expected_shape(results):
    layers = {w: results[w, 1]["metrics"] for w in WORKLOADS}
    for metrics in layers.values():
        assert metrics["metrics.encode_passes_per_doc"]["value"] == 10
    hit = {w: m["tokenizer.word_cache_hit_ratio"]["value"] for w, m in layers.items()}
    assert hit["encode-zipf"] > 0.5 > hit["encode-adversarial"]


def test_corrupted_decode_raises_failed_ops(monkeypatch):
    decode_ids = TokenizerModel.decode_ids

    def corrupt(self, ids):
        return b"#" + decode_ids(self, ids)

    monkeypatch.setattr(TokenizerModel, "decode_ids", corrupt)
    result = _run("encode-zipf", 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_wrong_encoding_fails_the_replay_check(monkeypatch):
    # The CLI encode runs in a child process, so the wrong encoding is written
    # over its output: single-byte ids still decode to the input, so only
    # replay can tell.
    replay = checks.Checks.replay

    def byte_ids(self, model, lines, ids_file, sample):
        ids_file.write_bytes(b"".join(b" ".join(b"%d" % b for b in line) + b"\n"
                                      for line in lines))
        return replay(self, model, lines, ids_file, sample)

    monkeypatch.setattr(checks.Checks, "replay", byte_ids)
    result = _run("encode-zipf", 0)
    assert not result["correct"] and result["failed"] > 0


def test_untraced_run_leaves_the_package_unwrapped(monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = {dotted: _current(dotted) for dotted, _, _ in tracing.TARGETS}
    assert _run("train-5lang", 0)["correct"]
    after = {dotted: _current(dotted) for dotted, _, _ in tracing.TARGETS}
    assert after == before
    assert not any(hasattr(obj, "perfbench_layer") for obj in after.values())


def test_tracer_restores_every_target():
    before = {dotted: _current(dotted) for dotted, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(_current(d), "perfbench_layer") for d in before)
    finally:
        tracer.uninstall()
    assert {dotted: _current(dotted) for dotted in before} == before


def test_missing_target_is_absent_not_a_crash():
    targets = [t for t in tracing.TARGETS if t[1] != "kernels.count_pairs"]
    targets.append(("parity_bpe._removed_kernels.count_pairs", "kernels.count_pairs", False))
    tracer = tracing.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer)
    assert "_removed_kernels" in metrics["kernels.count_pairs_calls"]["absent"]
    assert metrics["kernels.merge_and_deltas_calls"]["value"] == 0
