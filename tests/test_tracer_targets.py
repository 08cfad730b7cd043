"""Every function the benchmark's tracer hooks exists under its dotted name,
the hooks that read the trainer's state still run, and training still calls
the hooked functions of its merge loop.

A renamed or moved target would otherwise only turn its per-layer metric
``absent`` in a traced benchmark run, a target no longer called would only
read 0 there, and a reshaped state would only show as a hook error.
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
