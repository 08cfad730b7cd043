"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets up SETUP_REPEATS times, then runs sessions (at least
MIN_SESSIONS) until ``--seconds`` have passed, and reports the end-to-end
metrics. Its times are reference-speed seconds (``speed.py``): wall time
corrected for how fast the shared machine ran meanwhile; the report shows the
wall medians beside them. ``peak_rss_mb`` is the highest peak RSS of the
sessions' ``train`` and ``encode`` processes. ``--trace 1`` runs one
set-up and one session untraced, then the same again with the tracer
installed, and reports the per-layer metrics and the tracing overhead; its
length is that fixed amount of work.

A readable report goes to stdout first. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The full result,
with provenance (and the spans, when traced), is written to
``.perfbench/results/``. Inputs live in ``.perfbench/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: make the ``perfbench`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC  # noqa: E402

SETUP_REPEATS = 3
MIN_SESSIONS = 2
WORK = ROOT / ".perfbench"

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "train_classical_s": "s",
    "train_parity_s": "s",
    "encode_mb_per_s": "MB/s",
    "decode_mb_per_s": "MB/s",
    "encode_line_p50_us": "us",
    "encode_line_p99_us": "us",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile."""
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q:g} {_percentile(values, q):.6g}"
    return "no percentile has ten samples beyond it"


def per_line_latencies(passes: list[list[float]]) -> list[float]:
    """Each timed line's median over the passes: every pass times the same
    lines on a freshly loaded, equally warmed model, so the passes are
    repeated trials and the median drops the machine's transient stalls."""
    return [statistics.median(trials) for trials in zip(*passes)]


def end_to_end(run) -> dict[str, dict]:
    samples, wall = run.samples, run.wall
    out = {}
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            out[name] = {"value": run.peak_rss_mb, "unit": unit,
                         "stat": "highest VmHWM of the sessions' train and encode processes"}
            continue
        if name.startswith("encode_line_"):
            lines = per_line_latencies(run.line_passes)
            q = 50 if name.endswith("p50_us") else 99
            stat = (f"p{q} over {len(lines)} lines, each the median of "
                    f"{len(run.line_passes)} warm encode_ids calls")
            value = _percentile(lines, q) if lines else None
        else:
            values = samples[name]
            value = statistics.median(values) if values else None
            stat = "no samples"
            if values:
                stat = (f"median of {len(values)}; {_tail(values)}; "
                        f"wall median {statistics.median(wall[name]):.6g}")
        out[name] = {"value": value, "unit": unit, "stat": stat}
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, workload, load_at_start: float) -> dict:
    import parity_bpe

    return {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": load_at_start,
        "kernel_backend": getattr(parity_bpe, "KERNEL_BACKEND", "absent"),
        "loop": "closed loop, one caller, single-threaded",
    }


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload, run, seconds: int, work: Path) -> None:
    """Set up SETUP_REPEATS times, then run sessions until ``seconds`` pass.

    ``setup_s`` adds up the set-up's pieces: reference seconds of the work in
    this process, and of importing the CLI and running it in each child.
    """
    for r in range(SETUP_REPEATS):
        run.setup_spent = []
        setup = workload.setup(run, _fresh(work / f"setup{r}"))
        run.record("setup_s", tuple(map(sum, zip(*run.setup_spent))))
        run.setup_spent = None
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
    deadline = time.perf_counter() + seconds
    sessions = 0
    while sessions < MIN_SESSIONS or time.perf_counter() < deadline:
        out = _fresh(work / "session")
        workload.session(run, setup, out)
        sessions += 1
    run.samples["sessions"] = [sessions]


def measure_traced(workload, seed, sizes, checks, work: Path):
    """One set-up and session untraced, then traced; (tracer, untraced s, traced s)."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import Run

    start = time.perf_counter()
    run = Run(seed, sizes, checks)
    setup = workload.setup(run, _fresh(work / "untraced"))
    workload.session(run, setup, _fresh(work / "untraced-session"))
    untraced = time.perf_counter() - start

    tracer = Tracer()
    run = Run(seed, sizes, checks, tracer=tracer)
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.run_id = "setup"
        with tracer.span("bench.setup"):
            setup = workload.setup(run, _fresh(work / "traced"))
        tracer.run_id = "session"
        with tracer.span("bench.session"):
            workload.session(run, setup, _fresh(work / "traced-session"))
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, untraced, traced


def _print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        if m.get("absent"):
            print(f"  {name:<{width}}  absent ({m['absent']})")
            continue
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  {m['stat']}" if m.get("stat") else ""
        print(f"  {name:<{width}}  {value:>12} {m['unit']:<6}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, for tests")
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()[0]
    from perfbench.checks import Checks
    from perfbench.speed import Stopwatch
    from perfbench.tracing import per_layer_metrics
    from perfbench.workloads import SIZES, WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload, sizes = WORKLOADS[args.workload], SIZES[args.size]
    result = {"provenance": provenance(args, workload, load_at_start)}
    checks = Checks()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        if args.trace:
            tracer, untraced, traced = measure_traced(workload, args.seed, sizes, checks, work)
            metrics = per_layer_metrics(tracer)
            metrics["trace.overhead_ratio"] = {
                "value": traced / untraced,
                "unit": "ratio",
                "stat": f"traced {traced:.3f} s over untraced {untraced:.3f} s",
            }
        else:
            stopwatch = Stopwatch()
            try:
                run = Run(args.seed, sizes, checks, stopwatch, min_step_s=sizes.min_step_s)
                measure(workload, run, args.seconds, work)
            finally:
                stopwatch.close()
            metrics = end_to_end(run)
            result["samples"], result["wall_samples"] = run.samples, run.wall
            result["line_us"] = per_line_latencies(run.line_passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        checks.record(m["value"] is not None or bool(m.get("absent")), f"{name} was not measured")

    result["metrics"] = metrics
    result["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ops_ratio": checks.failed_ratio,
        "notes": checks.notes,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        tracer.write(out, result)
    else:
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    p = result["provenance"]
    print(f"workload {p['workload']} (seed {p['seed']}, trace {p['trace']}, "
          f"size {p['size']}): {p['why']}")
    print(f"  git {p['git_sha']} src {p['src_sha256']} | {p['python']} | nproc {p['nproc']} "
          f"| load {p['loadavg_1min_at_start']:.2f} | kernels {p['kernel_backend']}")
    _print_table("per-layer metrics:" if args.trace else "end-to-end metrics:", metrics)
    print(f"  failed_ops_ratio {checks.failed_ratio:.6g} "
          f"({checks.failed} of {checks.attempted} checked items failed)")
    for note in checks.notes:
        print(f"  failed: {note}")
    print(f"  result file: {out.relative_to(ROOT)}")
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": m["value"] if m["value"] is not None else 0, "unit": m["unit"],
                   **({"absent": m["absent"]} if m.get("absent") else {})}
            for name, m in metrics.items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
