"""The three workloads: seeded inputs, set-up, and one measured session each.

Every workload drives the package the way a user does, through
``parity_bpe.cli.main(argv)``: train, encode, decode and eval. ``train`` and
``encode`` run in a child process each (``perfbench.child``), as a user runs
them, so each has a peak RSS of its own; ``decode`` and ``eval`` run in this
process. Each session ends with a per-line ``TokenizerModel.encode_ids`` loop
on a warm model. The workloads differ in which of these steps carries the
load.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from parity_bpe import SyntheticSpec, TokenizerModel, generate_synthetic
from parity_bpe import cli

from . import ROOT
from .checks import Checks

LANGS = ("l0", "l1", "l2", "l3", "l4")
PROPORTIONS = (0.5, 0.2, 0.15, 0.1, 0.05)
PARITY_FLAGS = ("--parity", "--window", "100", "--alpha", "2")
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    train_bytes: int  # train-5lang: training text bytes
    model_bytes: int  # encode-*: training text bytes of the set-up model
    vocab: int  # word inventory per language
    dev_lines: int  # aligned dev lines per language
    merges: int
    heldout_messages: int  # encode-zipf: held-out lines per language
    line_samples: int  # input lines timed one by one (a prefix of the input)
    adv_lines: int  # encode-adversarial: timed input lines, all of them timed
    adv_long: int  # of which long whitespace-free lines, three per length
    long_bytes: tuple[int, int]
    short_bytes: tuple[int, int]
    adv_bulk_lines: int  # encode-adversarial: untimed random-byte lines after them
    adv_bulk_bytes: int
    replay_samples: int  # encoded lines checked against the replay encoder
    min_step_s: float  # untraced runs repeat each CLI step until it ran this long


FULL = Sizes(
    train_bytes=4_000_000,
    model_bytes=500_000,
    vocab=20_000,
    dev_lines=2000,
    merges=2000,
    heldout_messages=25_000,
    line_samples=20_000,
    adv_lines=500,
    adv_long=9,
    long_bytes=(1024, 16384),
    short_bytes=(100, 300),
    adv_bulk_lines=20_000,
    adv_bulk_bytes=200,
    replay_samples=100,
    min_step_s=1.0,
)
# Runs every workload in seconds; used by the benchmark's own tests.
TINY = Sizes(
    train_bytes=40_000,
    model_bytes=20_000,
    vocab=300,
    dev_lines=40,
    merges=40,
    heldout_messages=100,
    line_samples=100,
    adv_lines=100,
    adv_long=3,
    long_bytes=(256, 512),
    short_bytes=(20, 60),
    adv_bulk_lines=100,
    adv_bulk_bytes=60,
    replay_samples=10,
    min_step_s=0.0,
)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Setup:
    """What a session needs: the corpus, the model and the encode input."""

    corpus: Path
    input: Path
    lines: list[bytes]  # the encode input, one record per line
    timed: list[bytes]  # lines of the per-line encode loop
    warm: list[bytes]  # lines that warm the per-line model first (see _make_setup)
    replay_sample: list[int]  # input line indices checked by replay
    model: Path | None = None  # parity model; train-5lang trains one per session


class Run:
    """Samples, checks, stopwatch and optional tracer of one benchmark run.

    With a stopwatch (untraced runs) times are reference-speed seconds, see
    ``speed.py``; ``wall`` keeps the plain wall seconds beside them. Without
    one (traced runs) both are wall seconds.
    """

    def __init__(self, seed: int, sizes: Sizes, checks: Checks, stopwatch=None, tracer=None,
                 min_step_s: float = 0.0):
        self.seed = seed
        self.sizes = sizes
        self.checks = checks
        self.stopwatch = stopwatch
        self.tracer = tracer
        self.min_step_s = min_step_s
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.line_passes: list[list[float]] = []  # per-line microseconds, one list per pass
        # (seconds, wall seconds) of each piece of the set-up that is running, if one is
        self.setup_spent: list[tuple[float, float]] | None = None
        self.peak_rss_mb: float | None = None  # of the session's child processes

    def timed(self, fn):
        """(fn(), seconds, wall seconds)."""
        if self.stopwatch is None:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            return result, elapsed, elapsed
        self.stopwatch.start()
        try:
            result = fn()
        finally:
            seconds, wall = self.stopwatch.stop()
        return result, seconds, wall

    def setup_step(self, fn):
        """Run an in-process piece of a set-up; its time counts towards ``setup_s``."""
        result, seconds, wall = self.timed(fn)
        if self.setup_spent is not None:
            self.setup_spent.append((seconds, wall))
        return result

    def record(self, metric: str, times: tuple[float, float], work: float | None = None) -> None:
        """One sample of ``metric``: seconds, or ``work`` per second when given."""
        seconds, wall = times
        self.samples[metric].append(seconds if work is None else work / seconds)
        self.wall[metric].append(wall if work is None else work / wall)

    def cli(self, argv: list) -> tuple[float, float] | None:
        """Run one CLI command in this process; (seconds, wall seconds) or None on failure."""
        argv = [str(a) for a in argv]
        sink = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(sink):
            rc, seconds, wall = self.timed(lambda: cli.main(argv))
        self.checks.cli(rc, argv)
        return (seconds, wall) if rc == 0 else None

    def child_cli(self, argv: list) -> tuple[float, float] | None:
        """Run one CLI command in a child process (``perfbench.child``); its
        seconds and wall seconds, or None on failure. In a set-up, the child's
        own times for importing the CLI and running it count towards ``setup_s``:
        this process only waits meanwhile, so its stopwatch would measure the
        speed of an idle process. Outside a set-up, the child's peak RSS
        counts towards ``peak_rss_mb``."""
        argv = [str(a) for a in argv]
        mode = "trace" if self.tracer is not None else ("timed" if self.stopwatch else "wall")
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child", mode, *argv],
            cwd=ROOT,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        report = None
        if proc.returncode == 0 and proc.stdout.strip():
            report = json.loads(proc.stdout.splitlines()[-1])
        if report is None:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            self.checks.cli(proc.returncode, argv)
            return None
        self.checks.cli(report["rc"], argv)
        if self.tracer is not None:
            self.tracer.merge(report["trace"], run_id=f"{self.tracer.run_id}/child")
        if report["rc"] != 0:
            return None
        if self.setup_spent is not None:
            self.setup_spent.append((report["import_seconds"] + report["seconds"],
                                     report["import_wall_seconds"] + report["wall_seconds"]))
        else:
            self.peak_rss_mb = max(report["peak_rss_kib"] / 1024, self.peak_rss_mb or 0.0)
        return report["seconds"], report["wall_seconds"]

    def train(self, mode: str, corpus: Path, out: Path) -> Path:
        """CLI ``train`` in a child process; records ``train_<mode>_s`` and
        checks determinism."""
        model = out / f"{mode}.bpe"
        flags = ("--classical",)
        if mode == "parity":
            flags = (*PARITY_FLAGS, "--dev", corpus / "dev")
        times = self.child_cli(["train", *flags, "--merges", self.sizes.merges,
                                "--corpus", corpus / "manifest.json", "--model-out", model])
        if times is not None:
            self.record(f"train_{mode}_s", times)
            self.checks.same_output(mode, model, Path(f"{model}.log.jsonl"))
        return model


def _spec(sizes: Sizes, train_bytes: int, dev_lines: int) -> SyntheticSpec:
    return SyntheticSpec.default(
        list(LANGS),
        list(PROPORTIONS),
        dev_lines=dev_lines,
        total_train_bytes=train_bytes,
        vocab_size=sizes.vocab,
    )


def _dev_lines(corpus: Path) -> list[bytes]:
    lines = []
    for lang in LANGS:
        lines.extend((corpus / "dev" / f"{lang}.txt").read_bytes().splitlines())
    return lines


def _write_lines(path: Path, lines: list[bytes]) -> None:
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def _make_setup(rng: random.Random, corpus: Path, input_path: Path, lines, sizes, timed: int,
                warm_on_untimed: bool, model=None):
    """The first ``timed`` lines are timed one by one; the per-line model is
    warmed on the dev set and, if ``warm_on_untimed``, on the other lines."""
    _write_lines(input_path, lines)
    warm = _dev_lines(corpus) + (lines[timed:] if warm_on_untimed else [])
    # Replay is quadratic in pre-token length: sample ordinary lines, plus
    # the shortest long line so a whitespace-free pre-token is always checked.
    short = [i for i, line in enumerate(lines) if len(line) < sizes.long_bytes[0]]
    sample = rng.sample(short, min(sizes.replay_samples, len(short)))
    long = [i for i, line in enumerate(lines) if len(line) >= sizes.long_bytes[0]]
    if long:
        sample.append(min(long, key=lambda i: len(lines[i])))
    return Setup(corpus, input_path, lines, lines[:timed], warm, sorted(sample), model)


def _repeat(run: Run, step) -> bool:
    """Call ``step`` (it returns its wall seconds, or None on failure) until
    ``run.min_step_s`` have passed, at least once, so a short step's median
    does not rest on one noisy sample per session. False on failure."""
    spent = 0.0
    while spent < run.min_step_s or not spent:
        wall = step()
        if wall is None:
            return False
        spent += wall
    return True


def _cli_step(run: Run, metric: str, argv: list, work: float | None = None,
              child: bool = False) -> bool:
    def step():
        times = (run.child_cli if child else run.cli)(argv)
        if times is not None:
            run.record(metric, times, work)
            return times[1]
        return None

    return _repeat(run, step)


def _encode_and_check(run: Run, setup: Setup, model: Path, out: Path) -> None:
    """CLI encode, decode and eval with ``model``, then the per-line loop."""
    mb = setup.input.stat().st_size / 1e6
    encoded, decoded = out / "encoded.ids", out / "decoded.txt"
    if _cli_step(run, "encode_mb_per_s", ["encode", "--model", model, "--format", "ids",
                                          "--input", setup.input, "--output", encoded],
                 work=mb, child=True):
        run.checks.replay(model, setup.lines, encoded, setup.replay_sample)
        if _cli_step(run, "decode_mb_per_s", ["decode", "--model", model, "--format", "ids",
                                              "--input", encoded, "--output", decoded], work=mb):
            run.checks.roundtrip(setup.input, decoded)
    _cli_step(run, "eval_s", ["eval", "--model", model, "--dev", setup.corpus / "dev",
                              "--out", out / "report.json"])

    # Per-line latency: a freshly loaded model, warmed on ``setup.warm``,
    # encodes the timed lines one call each.
    def line_pass():
        start = time.perf_counter()
        warm = TokenizerModel.load(model)
        for line in setup.warm:
            warm.encode_ids(line)
        run.line_passes.append(_line_latencies(run.stopwatch, warm, setup.timed))
        return time.perf_counter() - start

    _repeat(run, line_pass)


def _line_latencies(stopwatch, model, lines: list[bytes]) -> list[float]:
    """Microseconds of ``encode_ids`` per line; reference-speed with a stopwatch.

    The cyclic garbage collector is off while lines are timed, as ``timeit``
    does: a collection lands on whichever line happens to trigger it.
    """
    clock = time.perf_counter
    out = []
    gc.disable()
    if stopwatch is not None:
        stopwatch.start()
    try:
        for line in lines:
            busy = stopwatch.busy if stopwatch is not None else 0.0
            start = clock()
            model.encode_ids(line)
            elapsed = clock() - start
            if stopwatch is not None:
                elapsed = stopwatch.just_now(elapsed, busy)
            out.append(elapsed * 1e6)
    finally:
        if stopwatch is not None:
            stopwatch.stop()
        gc.enable()
    return out


class Train5Lang:
    name = "train-5lang"
    why = (
        "corpus load, trainer-state build and the merge loop do nearly all the work; "
        "classical and parity train the same corpus by different selection paths"
    )

    @staticmethod
    def setup(run: Run, out: Path) -> Setup:
        def make() -> Setup:
            sizes = run.sizes
            corpus = out / "corpus"
            generate_synthetic(_spec(sizes, sizes.train_bytes, sizes.dev_lines), run.seed, corpus)
            rng = random.Random(f"train-5lang/{run.seed}")
            lines = _dev_lines(corpus)
            rng.shuffle(lines)
            return _make_setup(rng, corpus, out / "input.txt", lines, sizes,
                               timed=sizes.line_samples, warm_on_untimed=True)

        return run.setup_step(make)

    @staticmethod
    def session(run: Run, setup: Setup, out: Path) -> None:
        run.train("classical", setup.corpus, out)
        model = run.train("parity", setup.corpus, out)
        if model.exists():
            _encode_and_check(run, setup, model, out)


class _EncodeWorkload:
    """Set-up trains a parity model; sessions only encode."""

    @classmethod
    def setup(cls, run: Run, out: Path) -> Setup:
        sizes = run.sizes
        corpus = out / "corpus"
        spec = _spec(sizes, sizes.model_bytes, sizes.dev_lines)
        run.setup_step(lambda: generate_synthetic(spec, run.seed, corpus))
        run.train("classical", corpus, out)
        model = run.train("parity", corpus, out)

        def make() -> Setup:
            rng = random.Random(f"{cls.name}/{run.seed}")
            lines, timed = cls.make_input(run, rng, out)
            return _make_setup(rng, corpus, out / "input.txt", lines, sizes, timed,
                               cls.warm_on_untimed, model)

        return run.setup_step(make)

    @staticmethod
    def session(run: Run, setup: Setup, out: Path) -> None:
        if setup.model.exists():
            _encode_and_check(run, setup, setup.model, out)


class EncodeZipf(_EncodeWorkload):
    name = "encode-zipf"
    why = (
        "held-out Zipf text whose words mostly hit the word cache, so pre-tokenization, "
        "the cache and full_report dominate"
    )
    # Warming on the untimed input keeps unseen words well under 1% of the
    # timed pre-tokens, so the p99 does not sit on the edge between cache
    # hits and misses.
    warm_on_untimed = True

    @staticmethod
    def make_input(run: Run, rng: random.Random, out: Path) -> tuple[list[bytes], int]:
        # Held-out text: the aligned lines of a corpus generated from another seed.
        heldout = out / "heldout"
        spec = _spec(run.sizes, 1, run.sizes.heldout_messages)
        generate_synthetic(spec, run.seed + 1_000_003, heldout)
        lines = _dev_lines(heldout)
        rng.shuffle(lines)
        shutil.rmtree(heldout)
        return lines, run.sizes.line_samples


class EncodeAdversarial(_EncodeWorkload):
    name = "encode-adversarial"
    why = (
        "unique random-byte pre-tokens and long whitespace-free lines defeat the word cache "
        "and make encode_ids rescan long pre-tokens"
    )
    # Its pre-tokens are unique: warming on them would fill the cache and
    # help no timed line.
    warm_on_untimed = False

    @staticmethod
    def make_input(run: Run, rng: random.Random, out: Path) -> tuple[list[bytes], int]:
        """The timed lines: random-byte lines with unique pre-tokens and
        more than 1% long whitespace-free lines, shuffled. Then the bulk of
        the input, random-byte lines whose unique pre-tokens fill the word
        cache (about 110k entries at full size)."""
        sizes = run.sizes
        # Long lines in the alphabet of the largest language, so merges apply.
        alphabet = _spec(sizes, 1, 1).languages[0].alphabet.encode("ascii")
        lo, hi = sizes.long_bytes
        # Evenly spaced lengths, three lines each: every seed gets the same
        # length profile and the p99 falls inside a group of equal lengths, so
        # the tail compares across seeds.
        strata = max(1, sizes.adv_long // 3)
        step = (hi - lo) // max(1, strata - 1)
        lengths = [lo + step * k for k in range(strata) for _ in range(3)]
        lines = [bytes(rng.choices(alphabet, k=n)) for n in lengths]
        others = bytes(b for b in range(256) if b != 0x0A)  # any byte but newline
        for _ in range(sizes.adv_lines - len(lengths)):
            n = rng.randint(*sizes.short_bytes)
            lines.append(bytes(rng.choices(others, k=n)))
        rng.shuffle(lines)
        timed = len(lines)
        for _ in range(sizes.adv_bulk_lines):
            lines.append(rng.randbytes(sizes.adv_bulk_bytes).replace(b"\n", b" "))
        return lines, timed


WORKLOADS = {w.name: w for w in (Train5Lang, EncodeZipf, EncodeAdversarial)}
