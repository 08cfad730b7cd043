"""Command-line surface: train, encode, decode, eval, compare, synth.

Exit codes: 0 success, 1 usage/config error, 2 data error (bad input data, a
path that cannot be read or written, or a text-only stdin or stdout where
encode or decode needs bytes), 3 internal error. An output file is
replaced only once it is completely written; a train meta implies the model
and log of the same run.
All outputs embed provenance (config hash plus input digests) sufficient to
re-run the command.
A train or eval --config file is read as the flags it names, placed before
the command line's own: argparse is the one parser of every flag value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import stat
import sys
from pathlib import Path

from .corpus import (
    NormUnit,
    check_limit_per_language,
    digest,
    load_labeled_corpus,
    load_parallel_dev,
    read_manifest,
)
from .errors import ConfigError, DataError, InternalError, ParityBpeError
from .metrics import RENYI_ALPHA_DEFAULT, check_renyi_order, full_report, load_gold_with_digest
from .parity import CRTable, ParityConfig, train_no_dev, train_parity
from .synthetic import SyntheticSpec, generate_synthetic
from .tokenizer import TokenizerModel, unescape_token
from .trainer import LogWriter, train_classical


def _digest_config(config: dict) -> str:
    return digest(json.dumps(config, sort_keys=True, default=str).encode("utf-8"))


@contextlib.contextmanager
def _replaced(path: str | Path):
    """Yield a temp path beside ``path`` that replaces it when the block completes.

    On any exception, ``KeyboardInterrupt`` included, the temp file is
    removed and ``path`` keeps its old content. A symlink is written through
    to its target. An existing path that is not a regular file (a device
    such as ``/dev/null``, a FIFO) is yielded as it is and written in place.
    """
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        yield target
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        # 0o666 under the umask: the mode a plain open(path, "w") gives
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))  # as open(path, "w") keeps it
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _bytes_of(stream, name: str):
    """The byte buffer under ``stream``; a text-only stream (a ``StringIO``) is a data error."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        raise DataError(f"{name} is a text-only stream: it cannot carry bytes")
    return buffer


@contextlib.contextmanager
def _output(path: str | Path | None, mode: str, **kwargs):
    """``path`` opened for writing through :func:`_replaced`; None or "-" is stdout."""
    if path in (None, "-"):
        yield _bytes_of(sys.stdout, "stdout") if "b" in mode else sys.stdout
        return
    with _replaced(path) as tmp, open(tmp, mode, **kwargs) as fh:
        yield fh


def _check_distinct(outputs: list[tuple], inputs: list[tuple]) -> None:
    """Refuse an output that names another output or an input of the same command.

    ``outputs`` and ``inputs`` are ``(flag, path)`` pairs, compared by
    ``os.path.realpath``; otherwise one file would silently end up holding
    another's content, or a model would be replaced by a report. An input
    of None is not given. An output of None or "-" (stdout) and an existing
    path that is not a regular file, such as ``/dev/null``, are not checked:
    they are written in place, not replaced.
    """
    named: dict[str, str] = {}
    for flag, path in outputs:
        if path in (None, "-"):
            continue
        real = os.path.realpath(path)
        if os.path.exists(real) and not os.path.isfile(real):
            continue
        if real in named:
            raise ConfigError(f"{flag} {path} names the same file as {named[real]}")
        named[real] = f"{flag} {path}"
    for flag, path in inputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"{named[real]} would overwrite {flag} {path}")


def _dev_files(dev_dir, langs) -> list[tuple]:
    """The ``--dev`` files of ``langs``, as ``(flag, path)`` inputs of :func:`_check_distinct`."""
    return [("--dev file", Path(dev_dir) / f"{lang}.txt") for lang in langs]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="parity-bpe", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    train = sub.add_parser("train", help="learn a merge list from a labeled corpus")
    train.add_argument("--corpus", help="manifest.json of the labeled training corpus")
    train.add_argument("--merges", type=int, help="total merge budget")
    mode = train.add_mutually_exclusive_group()
    mode.add_argument("--classical", action="store_true", help="global frequency objective")
    mode.add_argument("--parity", action="store_true", help="min-max per-language objective")
    train.add_argument("--dev", help="directory of aligned <lang>.txt dev files")
    train.add_argument(
        "--no-dev",
        action="store_true",
        help="measure compression on the training corpus (bytes unit)",
    )
    train.add_argument(
        "--unit",
        choices=[u.value for u in NormUnit],
        default=None,
        help="normalization unit for dev compression rates "
        f"(default: {ParityConfig.unit.value}; --classical and --no-dev: bytes)",
    )
    train.add_argument("--window", type=int, default=None,
                       help=f"moving-window size (0 disables; default {ParityConfig.window_size})")
    train.add_argument("--alpha", type=float, default=None,
                       help=f"window quota multiplier (default {ParityConfig.alpha})")
    train.add_argument(
        "--hybrid-split",
        type=float,
        default=None,
        help="fraction of the budget trained with the global objective first (default 0.0)",
    )
    train.add_argument("--limit-per-language", type=int, default=None)
    train.add_argument("--model-out", default="model.bpe")
    train.add_argument("--log-out", default=None, help="default: <model-out>.log.jsonl")
    train.add_argument("--config", default=None, help="JSON file overriding flag defaults")
    train.set_defaults(func=cmd_train)

    encode = sub.add_parser("encode", help="tokenize input lines with a saved model")
    encode.add_argument("--model", required=True)
    encode.add_argument("--input", default=None, help="input file (default: stdin)")
    encode.add_argument("--output", default=None, help="output file (default: stdout)")
    encode.add_argument(
        "--format", choices=["tokens", "ids"], default="tokens",
        help="escaped token strings or numeric token ids",
    )
    encode.set_defaults(func=cmd_encode)

    decode = sub.add_parser("decode", help="invert encode output back to bytes")
    decode.add_argument("--model", required=True)
    decode.add_argument("--input", default=None)
    decode.add_argument("--output", default=None, help="output file (default: stdout)")
    decode.add_argument("--format", choices=["tokens", "ids"], default="tokens")
    decode.set_defaults(func=cmd_decode)

    evaluate = sub.add_parser("eval", help="intrinsic metric report on a parallel dev corpus")
    evaluate.add_argument("--model", help="model file to evaluate")
    evaluate.add_argument("--dev", help="directory of aligned <lang>.txt files")
    evaluate.add_argument("--langs", default=None, help="comma-separated subset of languages")
    evaluate.add_argument("--out", default=None, help="report JSON (default: stdout)")
    evaluate.add_argument("--csv", default=None, help="optional per-language CSV")
    evaluate.add_argument("--gold", default=None, help="gold segmentation TSV")
    evaluate.add_argument("--renyi-alpha", type=float, default=RENYI_ALPHA_DEFAULT)
    evaluate.add_argument("--config", default=None, help="JSON file overriding flag defaults")
    evaluate.set_defaults(func=cmd_eval)

    compare = sub.add_parser("compare", help="side-by-side metric table for several models")
    compare.add_argument("models", nargs="+", help="two or more model files")
    compare.add_argument("--dev", required=True)
    compare.add_argument("--langs", default=None)
    compare.add_argument("--csv", default=None)
    compare.add_argument("--renyi-alpha", type=float, default=RENYI_ALPHA_DEFAULT)
    compare.set_defaults(func=cmd_compare)

    synth = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    synth.add_argument("--out", help="output directory")
    synth.add_argument("--langs", default="aa,bb,cc", help="comma-separated language codes")
    synth.add_argument("--proportions", default=None, help="comma-separated byte proportions")
    synth.add_argument("--dev-lines", type=int, default=None,
                       help=f"dev lines per language (default {SyntheticSpec.dev_lines})")
    synth.add_argument("--train-bytes", type=int, default=None,
                       help=f"training text bytes (default {SyntheticSpec.total_train_bytes})")
    synth.add_argument("--vocab-size", type=int, default=None,
                       help=f"words per language (default {SyntheticSpec.vocab_size})")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--config", default=None, help="JSON synthetic spec")
    synth.set_defaults(func=cmd_synth)

    return parser


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise ConfigError(f"--{name} is required")
    return value


def cmd_train(args) -> int:
    """Train from flags. Only the mode rules live here (which flags go with
    --classical, --parity and --no-dev): the flags map to one ``ParityConfig``,
    whose ``validate`` checks every value before any corpus file is read."""
    manifest = Path(_require(args, "corpus"))
    merges = _require(args, "merges")
    if not (args.classical or args.parity or args.no_dev):
        raise ConfigError("choose a mode: --classical or --parity [--no-dev]")
    if args.classical and args.no_dev:
        raise ConfigError("--no-dev only applies to --parity")
    if args.classical:
        parity_flags = [("--window", args.window), ("--alpha", args.alpha),
                        ("--hybrid-split", args.hybrid_split), ("--dev", args.dev)]
        given = [flag for flag, value in parity_flags if value is not None]
        if given:
            raise ConfigError(f"--classical takes no {', '.join(given)}")
    if args.no_dev and args.dev is not None:
        raise ConfigError("--no-dev takes no --dev")
    check_limit_per_language(args.limit_per_language, "--limit-per-language")
    if args.classical and args.unit not in (None, NormUnit.BYTES.value):
        raise ConfigError("--classical forces --unit bytes")

    model_out = Path(args.model_out)
    log_out = Path(args.log_out) if args.log_out else Path(str(model_out) + ".log.jsonl")
    meta_out = Path(str(model_out) + ".meta.json")
    # Paths, not strings: train writes a file even for "-", so none is stdout.
    outputs = [("--model-out", model_out), ("--log-out", log_out), ("the meta file", meta_out)]
    _check_distinct(outputs, [("--corpus", manifest)])

    # The knobs' argparse defaults are None, so that --classical can tell a given
    # flag from an absent one; an absent one takes ParityConfig's field default.
    fields = {"window_size": args.window, "alpha": args.alpha,
              "unit": None if args.unit is None else NormUnit(args.unit)}
    fields = {name: value for name, value in fields.items() if value is not None}
    if args.classical or args.no_dev:  # both measure compression on the training corpus
        fields.setdefault("unit", NormUnit.BYTES)
    hybrid_split = 0.0 if args.hybrid_split is None else args.hybrid_split
    config = ParityConfig.hybrid(merges, hybrid_split, **fields)
    config.validate(no_dev=args.no_dev)
    dev_dir = None if args.classical or args.no_dev else _require(args, "dev")

    # The data files are known once the manifest is read, and checked before any is.
    declared = read_manifest(manifest)
    langs = sorted(lang for lang, _ in declared.entries)
    dev_files = [] if dev_dir is None else _dev_files(dev_dir, langs)
    train_inputs = [(f"the {lang} training file", path) for lang, path in declared.entries]
    _check_distinct(outputs, train_inputs + dev_files)
    resolved = {
        "command": "train",
        "corpus": str(manifest),
        "merges": config.total_merges,
        "mode": "classical" if args.classical else "parity",
        "no_dev": bool(args.no_dev),
        "dev": args.dev,
        "unit": config.unit.value,
        "window": config.window_size,
        "alpha": config.alpha,
        "hybrid_split": hybrid_split,
        "limit_per_language": args.limit_per_language,
    }
    # Digests of the bytes each loader read, not of the files as they are later.
    input_digests = {"manifest": declared.digest}

    def training_corpus():
        corpus = load_labeled_corpus(declared, args.limit_per_language)
        input_digests.update(corpus.digests)
        return corpus

    def dev_corpus():
        dev = load_parallel_dev(dev_dir, langs)
        input_digests.update((f"dev/{lang}", d) for lang, d in dev.digests.items())
        return dev

    # All three outputs go to temp files. Unwinding the with statement renames
    # the model, then the log, then the meta; the meta of an earlier run is
    # removed before the first rename, so a meta on disk always sits beside
    # the model and log of its own run. The corpora are made in the training
    # call's arguments, so that no name here holds them while the merges run,
    # and the log is written record by record as the merges are made.
    with (
        _output(meta_out, "w", encoding="utf-8") as meta_fh,
        _output(log_out, "w", encoding="utf-8", newline="\n") as log_fh,
        _replaced(model_out) as model_tmp,
    ):
        writer = LogWriter(log_fh)
        if args.classical:
            model, log = train_classical(training_corpus(), config.total_merges, on_step=writer)
        elif args.no_dev:
            model, log = train_no_dev(training_corpus(), config, on_step=writer)
        else:
            model, log = train_parity(training_corpus(), dev_corpus(), config, on_step=writer)
        # The trainer's final token totals are what encoding the reference
        # corpus with the model would give, so it is not encoded again.
        summary_table = CRTable(config.unit, tuple(langs), log.unit_totals, log.token_totals)
        summary = {
            "merges_learned": len(model.merges),
            "stopped_early": log.stopped_early,
            "stop_reason": log.stop_reason,
            "cr_unit": summary_table.unit.value,
            "per_language_cr": summary_table.snapshot(),
        }
        meta = {
            "config": resolved,
            "config_hash": _digest_config(resolved),
            "inputs": input_digests,
            "summary": summary,
        }
        model.save(model_tmp)
        meta_fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        if os.path.isfile(meta_out):  # a symlink stays; its target goes
            os.unlink(os.path.realpath(meta_out))

    print(f"model: {model_out} ({len(model.merges)} merges)")
    print(f"log:   {log_out}")
    print(f"final per-language CR ({summary_table.unit.value}):")
    for lang in summary_table.langs:
        print(f"  {lang}: {summary_table.cr(lang):.6f}")
    if log.stopped_early:
        print(f"stopped early: {log.stop_reason}")
    return 0


def _input(path: str | None):
    """``path`` opened for binary reading, one line at a time; None or "-" is stdin."""
    if path in (None, "-"):
        return contextlib.nullcontext(_bytes_of(sys.stdin, "stdin"))
    return open(path, "rb")


def cmd_encode(args) -> int:
    # --output may name --input: the input is read to its end before the replace.
    _check_distinct([("--output", args.output)], [("--model", args.model)])
    # A line's tokens are its runs' tokens in order (no merge joins an inert
    # byte to a neighbour), every run yields at least one token and an empty
    # line has no run, so joining the runs' texts gives the line's tokens.
    # Runs, unlike pre-tokens, repeat in random bytes, so the cache hits there.
    model = TokenizerModel.load(args.model)
    texts, runs = model.text_cache(args.format).__getitem__, model.run_splitter()
    del model  # the loop needs neither its vocabulary nor its id cache
    with _input(args.input) as lines, _output(args.output, "wb") as out:
        for line in lines:
            out.write(b" ".join(map(texts, runs(line.rstrip(b"\n")))) + b"\n")
    return 0


def _decode_checked(model: TokenizerModel, fmt: str, fields: list[bytes]) -> bytes:
    """A line's fields parsed and checked one by one, for spellings not in ``text_spans``."""
    if fmt == "ids":
        try:
            ids = [int(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"bad token id in input: {exc}") from None
        return model.decode_ids(ids)
    try:
        texts = [f.decode("ascii") for f in fields]
    except UnicodeDecodeError:
        raise DataError("non-ASCII byte in token input") from None
    return model.decode([unescape_token(t) for t in texts])


def cmd_decode(args) -> int:
    _check_distinct([("--output", args.output)], [("--model", args.model)])
    model = TokenizerModel.load(args.model)
    span = model.text_spans(args.format).__getitem__
    with _input(args.input) as lines, _output(args.output, "wb") as out:
        for line in lines:
            fields = line.split()  # the trailing b"\n" is whitespace too
            try:
                decoded = b"".join(map(span, fields))
            except KeyError:  # a field that encode does not write this way
                decoded = _decode_checked(model, args.format, fields)
            out.write(decoded + b"\n")
    return 0


def _dev_languages(dev_dir: Path, langs_flag: str | None) -> list[str]:
    if langs_flag:
        langs = langs_flag.split(",")
        if "" in langs:
            raise ConfigError(f"--langs takes comma-separated language codes, got {langs_flag!r}")
        return sorted(set(langs))
    langs = sorted(p.stem for p in dev_dir.glob("*.txt"))
    if not langs:
        raise DataError(f"no <lang>.txt files in {dev_dir}")
    return langs


def _report_for(model_path: Path, dev, args):
    """The report of one model on ``dev``. Its provenance hashes every flag
    that changes the report (the languages as ``dev`` holds them, sorted and
    once each) and records the digests of the bytes each input was read from."""
    model = TokenizerModel.load(model_path)
    gold_path = getattr(args, "gold", None)
    inputs = {f"dev/{lang}": d for lang, d in dev.digests.items()}
    gold = None
    if gold_path:
        gold, inputs["gold"] = load_gold_with_digest(gold_path)
    config = {
        "dev": str(args.dev),
        "langs": list(dev.languages),
        "gold": gold_path,
        "renyi_alpha": args.renyi_alpha,
        "model": str(model_path),
    }
    provenance = {
        "model": str(model_path),
        "model_digest": model.file_digest,
        "dev": str(args.dev),
        "config_hash": _digest_config(config),
        "inputs": inputs,
    }
    return full_report(
        model, dev, renyi_alpha=args.renyi_alpha, gold=gold, provenance=provenance
    )


def _write_csv(path: str, header: list, rows: list) -> None:
    with _output(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_eval(args) -> int:
    model_path = Path(_require(args, "model"))
    dev_dir = Path(_require(args, "dev"))
    check_renyi_order(args.renyi_alpha, ConfigError)
    langs = _dev_languages(dev_dir, args.langs)
    _check_distinct(
        [("--out", args.out), ("--csv", args.csv)],
        [("--model", model_path), ("--gold", args.gold), *_dev_files(dev_dir, langs)],
    )
    dev = load_parallel_dev(dev_dir, langs)
    report = _report_for(model_path, dev, args)
    with _output(args.out, "w", encoding="utf-8") as out:
        out.write(report.to_json() + "\n")
    if args.csv:
        langs = sorted(report.per_language)
        metrics = sorted(report.per_language[langs[0]])
        rows = [[lang] + [report.per_language[lang][m] for m in metrics] for lang in langs]
        rows.append(["GLOBAL"] + [report.global_metrics.get(m, "") for m in metrics])
        _write_csv(args.csv, ["language"] + metrics, rows)
    return 0


_COMPARE_ROWS = [
    "type_token_ratio",
    "fertility",
    "cr_lines_ratio_of_sums",
    "cr_bytes_ratio_of_sums",
    "renyi_entropy",
    "vocab_utilization",
    "avg_token_rank",
    "gini_tokens_per_line",
]


def cmd_compare(args) -> int:
    if len(args.models) < 2:
        raise ConfigError("compare needs at least two model files")
    dev_dir = Path(args.dev)
    check_renyi_order(args.renyi_alpha, ConfigError)
    langs = _dev_languages(dev_dir, args.langs)
    _check_distinct(
        [("--csv", args.csv)], [("model", p) for p in args.models] + _dev_files(dev_dir, langs)
    )
    dev = load_parallel_dev(dev_dir, langs)
    given = sorted(args.models, key=lambda p: Path(p).name)
    model_paths = [Path(p) for p in given]
    # A column is headed by its model's file name, or by the path as given
    # when another model has the same file name.
    names = [p.name for p in model_paths]
    headings = [g if names.count(name) > 1 else name for g, name in zip(given, names)]
    reports = {p: _report_for(p, dev, args) for p in model_paths}

    sizes = [reports[p].provenance["vocab_size"] for p in model_paths]
    if len(set(sizes)) > 1:
        detail = ", ".join(f"{h}={s}" for h, s in zip(headings, sizes))
        print(f"warning: vocabulary sizes differ ({detail})", file=sys.stderr)

    rows = [
        (metric, [reports[p].global_metrics[metric] for p in model_paths])
        for metric in _COMPARE_ROWS
    ]
    crs = [
        [stats["cr_lines_ratio_of_sums"] for stats in reports[p].per_language.values()]
        for p in model_paths
    ]
    rows.append(("per_lang_cr_lines_min", [min(c) for c in crs]))
    rows.append(("per_lang_cr_lines_max", [max(c) for c in crs]))
    rows.append(("per_lang_cr_lines_spread", [max(c) - min(c) for c in crs]))

    name_width = max(len(r[0]) for r in rows)
    header = "metric".ljust(name_width) + "".join(
        f"  {heading:>18}" for heading in headings
    )
    print(header)
    print("-" * len(header))
    for metric, values in rows:
        print(metric.ljust(name_width) + "".join(f"  {v:>18.6f}" for v in values))

    if args.csv:
        _write_csv(
            args.csv,
            ["metric"] + headings,
            [[metric] + values for metric, values in rows],
        )
    return 0


def cmd_synth(args) -> int:
    out_dir = _require(args, "out")
    if args.config:
        spec = SyntheticSpec.from_json(args.config)
    else:
        codes = [c for c in args.langs.split(",") if c]
        if args.proportions:
            try:
                proportions = [float(x) for x in args.proportions.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--proportions takes comma-separated numbers, got {args.proportions!r}"
                ) from None
        else:
            # no codes give no proportions, which SyntheticSpec.validate rejects
            proportions = [1.0 / len(codes) for _ in codes]
        # an absent flag is None and leaves its field at the spec's default
        fields = {"dev_lines": args.dev_lines, "total_train_bytes": args.train_bytes,
                  "vocab_size": args.vocab_size}
        spec = SyntheticSpec.default(
            codes, proportions, **{name: v for name, v in fields.items() if v is not None}
        )
    stats = generate_synthetic(spec, args.seed, out_dir)
    print(f"wrote synthetic corpus to {out_dir} (seed {args.seed})")
    for lang, info in sorted(stats["languages"].items()):
        print(
            f"  {lang}: {info['train_lines']} train lines, "
            f"{info['train_text_bytes']} text bytes"
        )
    return 0


def _config_argv(subparser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags a ``--config`` JSON object names, as a user would type them.

    A key is a flag's name, with dashes or underscores. A string or a number
    gives ``--flag=value``, for argparse to convert by the flag's type and
    check against its choices as any argv value. A switch takes true (the
    bare switch) or false (nothing). Null is "not given", so it fits only a
    flag whose default is None. Any other value raises ``ConfigError``.
    """
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON or too deep
        raise DataError(f"malformed config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    config = {key.replace("-", "_"): value for key, value in config.items()}
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    unknown = set(config) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for dest, value in config.items():
        action = actions[dest]
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch such as --classical
            ok = isinstance(value, bool)
            tokens += [flag] if value is True else []
        elif value is None:
            ok = action.default is None
        else:
            ok = type(value) in (int, float) or isinstance(value, str) and _argv_can_hold(value)
            tokens.append(f"{flag}={value}")
        if not ok:
            raise ConfigError(f"config: invalid value for {flag}: {json.dumps(value)}")
    return tokens


def _argv_can_hold(text: str) -> bool:
    try:
        return b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        return False


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, with a ``train`` or ``eval`` ``--config`` read as the flags it names.

    The config's flags go right after the command name, before the command
    line's own, and argv is parsed again. So argparse alone finds the config
    path (the last ``--config``, or any prefix of it that argparse accepts),
    converts and checks each value, and lets the command line's flags win.
    ``synth`` reads its ``--config`` as a ``SyntheticSpec`` instead.
    """
    args = parser.parse_args(argv)
    if args.command in ("train", "eval") and args.config:
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        at = argv.index(args.command) + 1  # only -h, which exits, can come before it
        flags = _config_argv(commands.choices[args.command], args.config)
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ParityBpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except OSError as exc:  # an unreadable input or unwritable output path
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
