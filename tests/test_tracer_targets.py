"""Every function the benchmark's tracer hooks exists under its dotted name.

A renamed or moved target would otherwise only turn its per-layer metric
``absent`` in a traced benchmark run.
"""

import pytest

from perfbench.tracing import TARGETS, resolve


@pytest.mark.parametrize("dotted", [dotted for dotted, _, _ in TARGETS])
def test_target_resolves(dotted):
    owner, name = resolve(dotted)
    assert callable(getattr(owner, name))
