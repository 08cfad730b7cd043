"""Reference-speed stopwatch: wall time corrected for the machine's speed.

The CPUs of a shared machine change speed as other tenants come and go; on a
2-vCPU 2.1 GHz Xeon VM, by up to 2x within seconds, so the same training run
took anywhere from 2.1 to 3.7 s. So while a step runs, a small fixed
pure-Python probe (dict updates over byte pairs, like the package's own hot
loops) runs every INTERVAL_S from a SIGALRM timer. The step's time is its wall time minus the probes' own
time, multiplied by the mean over those probes of REFERENCE_S / probe time:
the time the step would take at the reference speed. Slow probes only lower
the mean, so a stall in one probe cannot blow the figure up. The cyclic
garbage collector is off inside a probe: a collection that the probe's own
allocations trigger costs time in proportion to the program's heap, and that
time belongs to the step, not to the machine's speed.

The timer interrupts the process's main thread, so this suits the
single-threaded benchmark processes only.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.02
# Probe duration at the reference speed: the fast state of that 2-vCPU
# 2.1 GHz Xeon VM.
REFERENCE_S = 2.5e-4
RECENT_PROBES = 8

_WORDS = tuple(
    bytes((97 + (i * 7) % 13, 97 + (i * 11) % 13, 97 + i % 13, 97 + (i * 5) % 11))
    for i in range(320)
)


def _probe_work() -> dict:
    counts: dict = {}
    for word in _WORDS:
        for pair in zip(word, word[1:]):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


class Stopwatch:
    """``start`` and ``stop`` around one step; ``stop`` returns (reference s, wall s)."""

    def __init__(self):
        self.busy = 0.0  # seconds spent inside probes so far
        self.rates: list[float] = []  # REFERENCE_S / probe time, oldest first
        self._mark: tuple[float, float, int] | None = None
        self._previous = signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.busy += elapsed
        self.rates.append(REFERENCE_S / elapsed)

    def start(self) -> None:
        if self._mark is not None:
            raise RuntimeError("stopwatch already running")
        # One probe on each side of the step, so a step shorter than
        # INTERVAL_S still gets a speed reading.
        self._probe()
        self._mark = (time.perf_counter(), self.busy, len(self.rates) - 1)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        start, busy, first = self._mark
        self._mark = None
        wall = end - start - (self.busy - busy)
        self._probe()
        rates = self.rates[first:]
        return wall * sum(rates) / len(rates), wall

    def just_now(self, elapsed: float, busy: float) -> float:
        """Reference seconds of a short interval that ended just now, while the
        stopwatch runs. ``busy`` is ``self.busy`` read when it began. Scaled by
        the last RECENT_PROBES probes: the speed changes within a long loop,
        and a single probe is too noisy to scale by on its own."""
        recent = self.rates[-RECENT_PROBES:]
        return (elapsed - (self.busy - busy)) * sum(recent) / len(recent)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
