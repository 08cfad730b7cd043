"""Run one parity-bpe CLI command in a fresh process and report how it went.

Usage: ``python3 -m perfbench.child MODE ARGV...``, MODE one of ``timed``
(reference-speed seconds, see ``speed.py``), ``wall`` or ``trace`` (wall
seconds, and the tracer installed).

Prints one JSON object: the exit code; the seconds and wall seconds of
importing the CLI and of ``cli.main``; the peak RSS of this process in KiB;
and, traced, what the tracer recorded. The CLI's own stdout is discarded.

The workloads run ``train`` and ``encode`` here, so each of these commands
has a process and a peak RSS of its own.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time

import perfbench  # noqa: F401  (puts src/ on sys.path)


def peak_rss_kib() -> int:
    """Peak resident set size of this process, in KiB.

    ``VmHWM`` counts this program's memory only. ``ru_maxrss`` is the
    fallback where there is no /proc: on Linux it also carries the parent's
    resident size from the moment it forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("timed", "wall", "trace"):
        print("usage: python3 -m perfbench.child timed|wall|trace ARGV...", file=sys.stderr)
        return 2
    tracer = stopwatch = None
    if argv[0] == "timed":
        from perfbench.speed import Stopwatch

        stopwatch = Stopwatch()

    def timed(fn):
        """(fn(), seconds, wall seconds)"""
        if stopwatch is None:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            return result, elapsed, elapsed
        stopwatch.start()
        try:
            result = fn()
        finally:
            seconds, wall = stopwatch.stop()
        return result, seconds, wall

    cli, import_seconds, import_wall = timed(
        lambda: importlib.import_module("parity_bpe.cli"))
    if argv[0] == "trace":
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sink = io.TextIOWrapper(io.BytesIO())
    try:
        with contextlib.redirect_stdout(sink):
            rc, seconds, wall = timed(lambda: cli.main(argv[1:]))
    finally:
        if stopwatch is not None:
            stopwatch.close()
        if tracer is not None:
            tracer.uninstall()
    report = {
        "rc": rc,
        "seconds": seconds,
        "wall_seconds": wall,
        "import_seconds": import_seconds,
        "import_wall_seconds": import_wall,
        "peak_rss_kib": peak_rss_kib(),
        "trace": tracer.export() if tracer else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
