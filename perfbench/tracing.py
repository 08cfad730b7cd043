"""Traced-run recorder: wraps the package's entry points, named by dotted path.

Only the traced run creates a :class:`Tracer` and calls :meth:`Tracer.install`;
the untraced run never does, so it executes the package exactly as shipped.

Every wrapped call opens a frame on one stack. When it closes, its duration is
added to its layer's total and to its parent's child time, so a layer's self
time is its duration minus the time its children cover (calls in one thread
never overlap). Coarse entry points also keep one span per call (id, layer,
start, end, parent span id, run id); functions called once per word or per
line are only aggregated, which keeps the span list small.

A target that no longer exists is reported as absent with the reason; the
benchmark keeps running and prints every metric that does not depend on it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "parity_bpe"
# What a hook may raise when the package's internals have changed shape.
_HOOK_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError)

# (dotted target, layer, keep one span per call)
TARGETS = (
    ("parity_bpe.cli.cmd_train", "cli.train", True),
    ("parity_bpe.cli.cmd_encode", "cli.encode", True),
    ("parity_bpe.cli.cmd_decode", "cli.decode", True),
    ("parity_bpe.cli.cmd_eval", "cli.eval", True),
    ("parity_bpe.corpus.load_labeled_corpus", "corpus.load_labeled", True),
    ("parity_bpe.corpus.load_parallel_dev", "corpus.load_dev", True),
    ("parity_bpe.corpus.pretokenize", "corpus.pretokenize", False),
    ("parity_bpe.trainer.TrainerState.__init__", "trainer.state_build", True),
    ("parity_bpe.trainer.TrainerState.select_global", "trainer.select", True),
    ("parity_bpe.trainer.TrainerState.select_for_lang", "trainer.select", True),
    ("parity_bpe.trainer.TrainerState.apply", "trainer.apply", True),
    ("parity_bpe.trainer.train_classical", "trainer.train_classical", True),
    ("parity_bpe.parity.train_parity", "parity.train_parity", True),
    ("parity_bpe.parity.compute_cr", "parity.compute_cr", True),
    ("parity_bpe._kernels.count_pairs", "kernels.count_pairs", False),
    ("parity_bpe._kernels.merge_and_deltas", "kernels.merge_and_deltas", False),
    ("parity_bpe._kernels.encode_ids", "kernels.encode_ids", False),
    ("parity_bpe.tokenizer.TokenizerModel.load", "tokenizer.load", True),
    ("parity_bpe.tokenizer.TokenizerModel.save", "tokenizer.save", True),
    ("parity_bpe.tokenizer.TokenizerModel.encode_ids", "tokenizer.encode_ids", False),
    ("parity_bpe.tokenizer.TokenizerModel.token_count", "tokenizer.token_count", False),
    ("parity_bpe.tokenizer.TokenizerModel.decode_ids", "tokenizer.decode", False),
    ("parity_bpe.tokenizer.TokenizerModel.decode", "tokenizer.decode", False),
    ("parity_bpe.metrics.full_report", "metrics.full_report", True),
)


def resolve(dotted: str):
    """(owner, attribute name) for a dotted path; LookupError when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                raise LookupError(f"{dotted}: {module_name} has no {'.'.join(parts[cut:-1])}")
        name = parts[-1]
        found = name in vars(owner) if isinstance(owner, type) else hasattr(owner, name)
        if not found:
            raise LookupError(f"{dotted}: no attribute {name!r}")
        return owner, name
    raise LookupError(f"{dotted}: no importable module")


class Tracer:
    """Spans, per-layer call statistics and counts of one traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.run_id = "run"
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.absent: dict[str, str] = {}  # layer -> reason
        self.hook_errors: dict[str, str] = {}  # layer -> reason
        self._stack: list[list] = []  # open frames: [child_s, start, span id, layer, parent frame]
        self._next_span = 0
        self._restore: list[tuple] = []
        self._state = None  # newest TrainerState, read when its training returns

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        missing: dict[str, list[str]] = {}
        installed = set()
        for dotted, layer, keep in self.targets:
            self.stats.setdefault(layer, [0, 0.0, 0.0])
            try:
                owner, name = resolve(dotted)
            except LookupError as exc:
                missing.setdefault(layer, []).append(str(exc))
                continue
            self._patch(owner, name, layer, keep)
            installed.add(layer)
        for layer, reasons in missing.items():
            if layer not in installed:
                self.absent[layer] = "; ".join(reasons)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, previous = self._restore.pop()
            setattr(owner, name, previous)

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch(self, owner, name, layer, keep) -> None:
        if isinstance(owner, type):
            raw = vars(owner)[name]
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, name, type(raw)(self._wrap(raw.__func__, layer, keep)))
            else:
                self._set(owner, name, self._wrap(raw, layer, keep))
            return
        # Rebind every module of the package that imported the function by
        # name, so callers that did ``from .corpus import f`` are traced too.
        original = getattr(owner, name)
        wrapped = self._wrap(original, layer, keep)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", None) or ""
            if module_name.split(".")[0] != PACKAGE:
                continue
            if vars(module).get(name) is original:
                self._set(module, name, wrapped)

    # -- recording --------------------------------------------------------
    def _open(self, layer: str, keep: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if keep:
            span_id = self._next_span
            self._next_span += 1
        else:
            span_id = parent[2] if parent else None
        frame = [0.0, time.perf_counter(), span_id, layer, parent]
        stack.append(frame)
        return frame

    def _close(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        elapsed = end - frame[1]
        stat = self.stats.setdefault(frame[3], [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        parent = frame[4]
        if parent is not None:
            parent[0] += elapsed
        if keep:
            parent_span = parent[2] if parent else None
            self.spans.append((frame[2], frame[3], frame[1], end, parent_span, self.run_id))

    @contextlib.contextmanager
    def span(self, layer: str):
        """Span around the benchmark's own steps (set-up, one session)."""
        frame = self._open(layer, True)
        try:
            yield
        finally:
            self._close(frame, True)

    def _wrap(self, fn, layer: str, keep: bool):
        hook = _HOOKS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, keep)
            if hook is not None:
                try:
                    hook(tracer, frame[4], args, kwargs, result)
                except _HOOK_ERRORS as exc:
                    tracer.hook_errors.setdefault(layer, f"{type(exc).__name__}: {exc}")
            return result

        wrapper.perfbench_layer = layer
        return wrapper

    # -- exchange with child processes -------------------------------------
    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "spans": self.spans,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }

    def merge(self, data: dict, run_id: str) -> None:
        """Fold in what a traced child process recorded."""
        for layer, (calls, total, self_s) in data["stats"].items():
            stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        self.counts.update(data["counts"])
        offset = self._next_span
        for span_id, layer, start, end, parent, _ in data["spans"]:
            parent = None if parent is None else parent + offset
            self.spans.append((span_id + offset, layer, start, end, parent, run_id))
            self._next_span = max(self._next_span, span_id + offset + 1)
        for layer, reason in data["absent"].items():
            self.absent.setdefault(layer, reason)
        for layer, reason in data["hook_errors"].items():
            self.hook_errors.setdefault(layer, reason)

    def write(self, path: Path, extra: dict) -> None:
        path.write_text(json.dumps({**extra, **self.export()}) + "\n", encoding="utf-8")


# -- hooks: counts taken where the work happens --------------------------------
# A hook gets the caller's open frame (None at top level); frame[3] is its
# layer and frame[4] its own caller's frame.
def _within(frame, layer: str) -> bool:
    while frame is not None:
        if frame[3] == layer:
            return True
        frame = frame[4]
    return False


def _count_load_bytes(tracer, parent, args, kwargs, result):
    manifest = Path(args[0] if args else kwargs["manifest"])
    entries = json.loads(manifest.read_text(encoding="utf-8"))["languages"]
    tracer.counts["corpus.load_bytes"] += sum(
        (manifest.parent / entry["path"]).stat().st_size for entry in entries
    )


# The word-cache hit ratio is taken over the CLI encode of the workload's
# input, the step whose throughput it explains; eval re-encodes the dev set
# ten times and would otherwise swamp it.
def _count_pretokens(tracer, parent, args, kwargs, result):
    if parent is not None and parent[3] == "tokenizer.encode_ids" and _within(parent, "cli.encode"):
        tracer.counts["cli_encode.pretokens"] += len(result)


def _count_word_encode(tracer, parent, args, kwargs, result):
    if _within(parent, "cli.encode"):
        tracer.counts["cli_encode.kernel_encodes"] += 1


def _remember_state(tracer, parent, args, kwargs, result):
    tracer._state = args[0]


def _count_select(tracer, parent, args, kwargs, result):
    if result is None:
        tracer.counts["trainer.select_misses"] += 1


def _heap_liveness(tracer, parent, args, kwargs, result):
    # One live slot per (pair, heap) whose count is positive: the global heap
    # plus each language heap. Every other heap entry is stale.
    state, tracer._state = tracer._state, None
    live = 0
    for vec in state.train.pair_counts.values():
        live += 1 + sum(1 for c in vec if c > 0)
    entries = len(state.global_heap) + sum(len(heap) for heap in state.lang_heaps)
    tracer.counts["trainer.heap_live"] += live
    tracer.counts["trainer.heap_entries"] += entries


def _parity_log(tracer, parent, args, kwargs, result):
    _heap_liveness(tracer, parent, args, kwargs, result)
    for step in result[1]:
        if step.mode == "parity":
            tracer.counts["parity.steps"] += 1
            tracer.counts["parity.fallbacks"] += bool(step.fallback)
            tracer.counts["parity.skipped"] += len(step.skipped)


def _count_useful_merge(tracer, parent, args, kwargs, result):
    if result[1]:
        tracer.counts["kernels.merge_useful"] += 1


def _count_report_pass(tracer, parent, args, kwargs, result):
    if parent is not None and parent[3] == "metrics.full_report":
        tracer.counts["metrics.tokenizations"] += 1


def _count_report_docs(tracer, parent, args, kwargs, result):
    dev = args[1] if len(args) > 1 else kwargs["dev"]
    tracer.counts["metrics.docs"] += dev.n_lines * len(dev.languages)


_HOOKS = {
    "corpus.load_labeled": _count_load_bytes,
    "corpus.pretokenize": _count_pretokens,
    "trainer.state_build": _remember_state,
    "trainer.select": _count_select,
    "trainer.train_classical": _heap_liveness,
    "parity.train_parity": _parity_log,
    "kernels.merge_and_deltas": _count_useful_merge,
    "kernels.encode_ids": _count_word_encode,
    "tokenizer.encode_ids": _count_report_pass,
    "tokenizer.token_count": _count_report_pass,
    "metrics.full_report": _count_report_docs,
}


# -- per-layer metrics -----------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(layer: str):
    return lambda s, c: s[layer][0]


def _total(layer: str):
    return lambda s, c: s[layer][1]


def _self(layer: str):
    return lambda s, c: s[layer][2]


def _merges_per_s(s, c) -> float:
    loop_s = (
        s["trainer.train_classical"][1]
        + s["parity.train_parity"][1]
        - s["trainer.state_build"][1]
    )
    return _ratio(s["trainer.apply"][0], loop_s)


_TRAIN_LAYERS = ["trainer.apply", "trainer.train_classical", "parity.train_parity",
                 "trainer.state_build"]
_CACHE_LAYERS = ["kernels.encode_ids", "tokenizer.encode_ids", "corpus.pretokenize", "cli.encode"]

# name -> (unit, layers it reads, value from (stats, counts))
PER_LAYER = {
    "corpus.load_labeled_s": ("s", ["corpus.load_labeled"], _total("corpus.load_labeled")),
    "corpus.load_mb_per_s": (
        "MB/s",
        ["corpus.load_labeled"],
        lambda s, c: _ratio(c["corpus.load_bytes"] / 1e6, s["corpus.load_labeled"][1]),
    ),
    "corpus.load_dev_s": ("s", ["corpus.load_dev"], _total("corpus.load_dev")),
    "corpus.pretokenize_calls": ("count", ["corpus.pretokenize"], _calls("corpus.pretokenize")),
    "trainer.state_build_s": ("s", ["trainer.state_build"], _total("trainer.state_build")),
    "trainer.select_s": ("s", ["trainer.select"], _total("trainer.select")),
    "trainer.select_calls": ("count", ["trainer.select"], _calls("trainer.select")),
    "trainer.select_miss_ratio": (
        "ratio",
        ["trainer.select"],
        lambda s, c: _ratio(c["trainer.select_misses"], s["trainer.select"][0]),
    ),
    "trainer.apply_s": ("s", ["trainer.apply"], _total("trainer.apply")),
    "trainer.apply_calls": ("count", ["trainer.apply"], _calls("trainer.apply")),
    "trainer.merges_per_s": ("1/s", _TRAIN_LAYERS, _merges_per_s),
    "trainer.heap_live_ratio": (
        "ratio",
        ["trainer.state_build", "trainer.train_classical", "parity.train_parity"],
        lambda s, c: _ratio(c["trainer.heap_live"], c["trainer.heap_entries"]),
    ),
    "parity.train_self_s": ("s", ["parity.train_parity"], _self("parity.train_parity")),
    "parity.compute_cr_s": ("s", ["parity.compute_cr"], _total("parity.compute_cr")),
    "parity.fallback_ratio": (
        "ratio",
        ["parity.train_parity"],
        lambda s, c: _ratio(c["parity.fallbacks"], c["parity.steps"]),
    ),
    "parity.skipped_per_step": (
        "ratio",
        ["parity.train_parity"],
        lambda s, c: _ratio(c["parity.skipped"], c["parity.steps"]),
    ),
    "kernels.count_pairs_calls": ("count", ["kernels.count_pairs"], _calls("kernels.count_pairs")),
    "kernels.count_pairs_s": ("s", ["kernels.count_pairs"], _total("kernels.count_pairs")),
    "kernels.merge_and_deltas_calls": (
        "count", ["kernels.merge_and_deltas"], _calls("kernels.merge_and_deltas")
    ),
    "kernels.merge_and_deltas_s": (
        "s", ["kernels.merge_and_deltas"], _total("kernels.merge_and_deltas")
    ),
    "kernels.merge_useful_ratio": (
        "ratio",
        ["kernels.merge_and_deltas"],
        lambda s, c: _ratio(c["kernels.merge_useful"], s["kernels.merge_and_deltas"][0]),
    ),
    "kernels.encode_ids_calls": ("count", ["kernels.encode_ids"], _calls("kernels.encode_ids")),
    "kernels.encode_ids_s": ("s", ["kernels.encode_ids"], _total("kernels.encode_ids")),
    "tokenizer.load_s": ("s", ["tokenizer.load"], _total("tokenizer.load")),
    "tokenizer.save_s": ("s", ["tokenizer.save"], _total("tokenizer.save")),
    "tokenizer.encode_ids_s": ("s", ["tokenizer.encode_ids"], _total("tokenizer.encode_ids")),
    "tokenizer.decode_s": ("s", ["tokenizer.decode"], _total("tokenizer.decode")),
    "tokenizer.word_cache_hit_ratio": (
        "ratio",
        _CACHE_LAYERS,
        lambda s, c: 1.0 - _ratio(c["cli_encode.kernel_encodes"], c["cli_encode.pretokens"]),
    ),
    "metrics.full_report_s": ("s", ["metrics.full_report"], _total("metrics.full_report")),
    "metrics.encode_passes_per_doc": (
        "ratio",
        ["metrics.full_report", "tokenizer.encode_ids", "tokenizer.token_count"],
        lambda s, c: _ratio(c["metrics.tokenizations"], c["metrics.docs"]),
    ),
    "cli.train_self_s": ("s", ["cli.train"], _self("cli.train")),
    "cli.encode_self_s": ("s", ["cli.encode"], _self("cli.encode")),
    "cli.eval_self_s": ("s", ["cli.eval"], _self("cli.eval")),
}


def per_layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric as {value, unit}, or {value: None, absent: reason}."""
    out = {}
    for name, (unit, layers, value_of) in PER_LAYER.items():
        reasons = [
            f"{layer}: {table[layer]}"
            for layer in layers
            for table in (tracer.absent, tracer.hook_errors)
            if layer in table
        ]
        if reasons:
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(reasons)}
        else:
            out[name] = {"value": value_of(tracer.stats, tracer.counts), "unit": unit}
    return out
