"""Every function the benchmark's tracer hooks exists under its dotted name,
the hooks that read the trainer's state still run, training still calls
the hooked functions of its merge loop, and a traced report pre-tokenizes
each dev line once.

A renamed or moved target would otherwise only turn its per-layer metric
``absent`` in a traced benchmark run, a target no longer called would only
read 0 there, a reshaped state would only show as a hook error, and a second
pre-tokenization of each dev line would only inflate ``corpus.pretokenize_calls``.
"""

import pytest

import parity_bpe
from perfbench.tracing import TARGETS, Tracer, resolve


@pytest.mark.parametrize("dotted", [dotted for dotted, _, _ in TARGETS])
def test_target_resolves(dotted):
    owner, name = resolve(dotted)
    assert callable(getattr(owner, name))


def test_trainer_hooks_run(corpus, dev):
    """The hooks that read the trainer's state still find what they read."""
    tracer = Tracer()
    tracer.install()
    try:
        # looked up at call time, so the installed wrappers run
        parity_bpe.train_classical(corpus, 100)
        parity_bpe.train_parity(corpus, dev, parity_bpe.ParityConfig(100, window_size=0))
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {}
    assert tracer.stats["trainer.train_classical"][0] == 1
    assert tracer.stats["parity.train_parity"][0] == 1
    assert tracer.counts["trainer.heap_live"] > 0
    assert tracer.counts["trainer.heap_entries"] > 0
    for layer in ("kernels.merge_and_deltas", "trainer.select", "trainer.apply"):
        assert tracer.stats[layer][0] > 0, layer


def test_a_traced_report_pretokenizes_each_dev_line_once(classical_run, dev):
    """``corpus.pretokenize_calls`` counts one call per dev line under ``full_report``."""
    model = parity_bpe.TokenizerModel(classical_run[0].merges)
    tracer = Tracer()
    tracer.install()
    try:
        parity_bpe.full_report(model, dev)
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {}
    assert tracer.stats["metrics.full_report"][0] == 1
    assert tracer.stats["corpus.pretokenize"][0] == dev.n_lines * len(dev.languages)
