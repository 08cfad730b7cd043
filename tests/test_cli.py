import argparse
import hashlib
import io
import json
import math
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parity_bpe import (
    DataError,
    LabeledCorpus,
    MetricReport,
    NormUnit,
    ParityConfig,
    TokenizerModel,
    TrainLog,
    _kernels,
    compute_cr,
    full_report,
    load_parallel_dev,
    pretokenize,
    train_classical,
)
from parity_bpe import cli, synthetic, tokenizer, trainer
from parity_bpe.cli import main
from parity_bpe.tokenizer import escape_token
from parity_bpe.trainer import LogWriter

from .oracles import (
    decode_line,
    greedy_steps,
    ids_line,
    naive_parity_steps,
    per_line_load_labeled_corpus,
    replay_encode,
    tokens_line,
)
from .test_trainer_parity import parity_cases

EXAMPLE_MODEL = "parity-bpe v1\nmerges:\nb\ta\nba\tb\n"
NON_BYTE_UNITS = ("lines", "chars", "words")
_PARITY_TRAIN = ["train", "--parity", "--merges", "30", "--corpus", "{synth}/manifest.json",
                 "--dev", "{synth}/dev", "--model-out", "{tmp}/m.bpe"]
_EVAL = ["eval", "--model", "{model}", "--dev", "{synth}/dev", "--out", "{tmp}/r.json"]
_SYNTH = ["synth", "--out", "{tmp}/corpus", "--train-bytes", "3000"]
_CLASSICAL_TRAIN = ["train", "--classical", "--merges", "5", "--corpus", "{synth}/manifest.json",
                    "--model-out", "{tmp}/m.bpe"]
# files the argv below name, written into {tmp}
BAD_INPUT_FILES = {
    "not.json": "{not json",
    "no_proportions.json": json.dumps({"languages": ["pp", "qq"]}),
    "spec_no_alphabet.json": json.dumps({"proportions": [1], "languages": [{"code": "a"}]}),
    "spec_proportions_string.json": json.dumps({"proportions": "ab", "languages": ["aa", "bb"]}),
    "spec_vocab_string.json": json.dumps(
        {"proportions": [1], "languages": ["aa"], "vocab_size": "x"}
    ),
    "manifest_list.json": "[1]",
    "manifest_entry_string.json": json.dumps({"languages": ["aa"]}),
    "tokens.txt": "ba b\n",
    "config_merges_list.json": json.dumps({"merges": [3], "classical": True}),
    "config_unit_not_a_choice.json": json.dumps({"unit": "furlongs", "parity": True}),
    "config_renyi_list.json": json.dumps({"renyi_alpha": [2]}),
    "config_switch_string.json": json.dumps({"classical": "false"}),
    "config_both_modes.json": json.dumps({"classical": True, "parity": True}),
    "spec_words_per_line_zero.json": json.dumps(
        {"proportions": [1], "languages": ["aa"], "words_per_line": [0, 3]}
    ),
    "spec_words_per_line_huge.json": json.dumps(
        {"proportions": [1], "languages": ["aa"], "words_per_line": [1, 10**12]}
    ),
    "deep.json": "[" * 100_000,
    "deep_record.jsonl": "[" * 200_000 + "]" * 200_000 + "\n",
    "huge_int_record.jsonl": '{"text": "a", "lang": "aa", "n": ' + "1" * 5000 + "}\n",
    **{
        f"manifest_{name}.json": json.dumps({"languages": [{"lang": "aa", "path": name + ".jsonl"}]})
        for name in ("deep_record", "huge_int_record")
    },
    "spec_code_nul.json": json.dumps({"proportions": [1], "languages": ["a\0b"]}),
    "spec_code_empty.json": json.dumps({"proportions": [1], "languages": [""]}),
    # numbers too large for a float, and a misspelt key
    "config_alpha_huge.json": json.dumps({"alpha": 10**400}),
    "spec_train_bytes_huge.json": json.dumps(
        {"proportions": [1.0], "languages": ["aa"], "total_train_bytes": 10**400}
    ),
    "spec_proportion_huge.json": json.dumps({"proportions": [10**400], "languages": ["aa"]}),
    "spec_train_bytes_nan.json": json.dumps(
        {"proportions": [1], "languages": ["aa"], "total_train_bytes": math.nan}
    ),
    "spec_unknown_key.json": json.dumps({"languages": ["aa", "bb"], "proportions": [0.5, 0.5],
                                         "dev_line": 3, "vocab_sise": 50, "train_bytes": 2000}),
    **{
        f"spec_zipf_{name}.json": json.dumps(
            {"proportions": [1], "languages": ["aa"], "zipf_exponent": value}
        )
        for name, value in [("nan", math.nan), ("inf", math.inf), ("1e6", 1e6), ("-1e6", -1e6)]
    },
}
# argv that each once ended in an uncaught exception or a bad exit 0
BAD_INPUT_ARGV = {
    "hybrid-split-nan": _PARITY_TRAIN + ["--hybrid-split", "nan"],
    "hybrid-split-inf": _PARITY_TRAIN + ["--hybrid-split", "inf"],
    "gold-missing": _EVAL + ["--gold", "{tmp}/nowhere.tsv"],
    "gold-directory": _EVAL + ["--gold", "{synth}/dev"],
    "eval-renyi-nan": _EVAL + ["--renyi-alpha", "nan"],
    "compare-renyi-nan": ["compare", "{model}", "{model}", "--dev", "{synth}/dev",
                          "--renyi-alpha", "nan"],
    "synth-config-missing": _SYNTH + ["--config", "{tmp}/nowhere.json"],
    "synth-config-not-json": _SYNTH + ["--config", "{tmp}/not.json"],
    "synth-config-no-proportions": _SYNTH + ["--config", "{tmp}/no_proportions.json"],
    "synth-proportions-not-numbers": _SYNTH + ["--proportions", "abc,1"],
    "synth-proportions-nan": _SYNTH + ["--langs", "aa,bb", "--proportions", "nan,1"],
    "synth-no-langs": _SYNTH + ["--langs", ""],
    "synth-out-existing-file": ["synth", "--out", "{model}", "--train-bytes", "3000"],
    "synth-config-language-without-alphabet": _SYNTH + ["--config", "{tmp}/spec_no_alphabet.json"],
    "synth-config-proportions-not-list":
        _SYNTH + ["--config", "{tmp}/spec_proportions_string.json"],
    "synth-config-vocab-size-not-number": _SYNTH + ["--config", "{tmp}/spec_vocab_string.json"],
    "encode-model-directory": ["encode", "--model", "{tmp}", "--input", "{synth}/dev/aa.txt"],
    "train-corpus-directory": _CLASSICAL_TRAIN + ["--corpus", "{tmp}"],
    "train-corpus-manifest-not-object": _CLASSICAL_TRAIN + ["--corpus", "{tmp}/manifest_list.json"],
    "train-corpus-language-not-object":
        _CLASSICAL_TRAIN + ["--corpus", "{tmp}/manifest_entry_string.json"],
    "train-model-out-directory": _CLASSICAL_TRAIN + ["--model-out", "{tmp}"],
    "train-log-out-missing-directory": _CLASSICAL_TRAIN + ["--log-out", "{tmp}/missing/l.jsonl"],
    "encode-output-missing-directory": ["encode", "--model", "{model}", "--input",
                                        "{synth}/dev/aa.txt", "--output", "{tmp}/missing/x"],
    "decode-output-missing-directory": ["decode", "--model", "{model}", "--input",
                                        "{tmp}/tokens.txt", "--output", "{tmp}/missing/x"],
    "eval-out-missing-directory": _EVAL + ["--out", "{tmp}/missing/r.json"],
    "eval-csv-missing-directory": _EVAL + ["--csv", "{tmp}/missing/r.csv"],
    "train-config-merges-list": _CLASSICAL_TRAIN + ["--config", "{tmp}/config_merges_list.json"],
    "train-config-unit-not-a-choice": ["train", "--merges", "3", "--corpus", "{synth}/manifest.json",
                                       "--dev", "{synth}/dev", "--model-out", "{tmp}/m.bpe",
                                       "--config", "{tmp}/config_unit_not_a_choice.json"],
    "eval-config-renyi-list": _EVAL + ["--config", "{tmp}/config_renyi_list.json"],
    "train-config-switch-string": _CLASSICAL_TRAIN[:1] + _CLASSICAL_TRAIN[2:]
    + ["--config", "{tmp}/config_switch_string.json"],
    "train-config-both-modes": _CLASSICAL_TRAIN[:1] + _CLASSICAL_TRAIN[2:]
    + ["--config", "{tmp}/config_both_modes.json"],
    "train-window-overflow": _PARITY_TRAIN + ["--window", str(10**30)],
    "train-model-out-is-training-file": _CLASSICAL_TRAIN + ["--model-out", "{synth}/train/aa.jsonl"],
    "eval-out-is-dev-file": _EVAL + ["--out", "{synth}/dev/aa.txt"],
    "synth-config-words-per-line-zero": _SYNTH + ["--config", "{tmp}/spec_words_per_line_zero.json"],
    **{
        f"synth-config-zipf-{name}": _SYNTH + ["--config", f"{{tmp}}/spec_zipf_{name}.json"]
        for name in ("nan", "inf", "1e6", "-1e6")
    },
    # JSON nested deeper than the parser's recursion limit, and an int too long to convert
    "train-config-deep": _CLASSICAL_TRAIN + ["--config", "{tmp}/deep.json"],
    "synth-config-deep": _SYNTH + ["--config", "{tmp}/deep.json"],
    "train-corpus-manifest-deep": _CLASSICAL_TRAIN + ["--corpus", "{tmp}/deep.json"],
    "train-record-deep": _CLASSICAL_TRAIN + ["--corpus", "{tmp}/manifest_deep_record.json"],
    "train-record-huge-int":
        _CLASSICAL_TRAIN + ["--corpus", "{tmp}/manifest_huge_int_record.json"],
    # language codes that name no file of their own under train/ and dev/
    "synth-code-nul": _SYNTH + ["--config", "{tmp}/spec_code_nul.json"],
    "synth-code-parent-dir": _SYNTH + ["--langs", "../esc"],
    "synth-code-two-levels-up": _SYNTH + ["--langs", "../../esc"],
    "synth-code-slash": _SYNTH + ["--langs", "en/us"],
    "synth-code-empty": _SYNTH + ["--config", "{tmp}/spec_code_empty.json"],
    # a --config number too large for a float, and a spec key that names no field
    "train-config-alpha-huge": _PARITY_TRAIN + ["--config", "{tmp}/config_alpha_huge.json"],
    "synth-config-train-bytes-huge": _SYNTH + ["--config", "{tmp}/spec_train_bytes_huge.json"],
    "synth-config-proportion-huge": _SYNTH + ["--config", "{tmp}/spec_proportion_huge.json"],
    "synth-config-unknown-key": _SYNTH + ["--config", "{tmp}/spec_unknown_key.json"],
    # one above each size ceiling: rejected before any inventory, message or file is built
    "synth-vocab-size-over-ceiling": _SYNTH + ["--vocab-size", str(synthetic.MAX_VOCAB_SIZE + 1)],
    "synth-dev-lines-over-ceiling": _SYNTH + ["--dev-lines", str(synthetic.MAX_DEV_LINES + 1)],
    "synth-train-bytes-over-ceiling":
        _SYNTH + ["--train-bytes", str(synthetic.MAX_TRAIN_BYTES + 1)],
    "synth-config-train-bytes-nan": _SYNTH + ["--config", "{tmp}/spec_train_bytes_nan.json"],
    "synth-config-words-per-line-over-ceiling":
        _SYNTH + ["--config", "{tmp}/spec_words_per_line_huge.json"],
    # one merge above the code-point ceiling of the trainer's words
    "train-merges-over-ceiling": _CLASSICAL_TRAIN[:2] + ["--merges", str(trainer.MAX_MERGES + 1)]
    + _CLASSICAL_TRAIN[4:],
}


@pytest.fixture()
def example_model(tmp_path):
    path = tmp_path / "example.bpe"
    path.write_text(EXAMPLE_MODEL)
    return path


def run(argv, monkeypatch=None, stdin: bytes = b""):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=io.BytesIO(stdin)))
    return main([str(a) for a in argv])


def _forbid_loading(monkeypatch):
    """Make loading a model or a dev set fail the test; returns the calls seen."""
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return record

    monkeypatch.setattr(TokenizerModel, "load", staticmethod(refuse("TokenizerModel.load")))
    monkeypatch.setattr(cli, "load_parallel_dev", refuse("load_parallel_dev"))
    return calls


class TestTrain:
    def test_classical(self, tmp_path, synth_dir, capsys):
        model_out = tmp_path / "classical.bpe"
        code = run(
            [
                "train", "--classical", "--merges", "60",
                "--corpus", synth_dir / "manifest.json", "--model-out", model_out,
            ]
        )
        assert code == 0
        assert model_out.exists()
        assert (tmp_path / "classical.bpe.log.jsonl").exists()
        meta = json.loads((tmp_path / "classical.bpe.meta.json").read_text())
        assert meta["summary"]["merges_learned"] == 60
        assert meta["config"]["unit"] == "bytes"
        # parity-only settings keep their defaults, so equal runs hash equal
        assert meta["config"]["window"] == 100
        assert meta["config"]["alpha"] == 2.0
        assert meta["config"]["hybrid_split"] == 0.0
        assert meta["config"]["dev"] is None
        assert meta["config_hash"]
        assert "manifest" in meta["inputs"]
        out = capsys.readouterr().out
        assert "final per-language CR" in out

    def test_parity_with_paper_defaults(self, tmp_path, synth_dir):
        model_out = tmp_path / "parity.bpe"
        code = run(
            [
                "train", "--parity", "--merges", "60",
                "--corpus", synth_dir / "manifest.json",
                "--dev", synth_dir / "dev",
                "--window", "100", "--alpha", "2",
                "--model-out", model_out,
            ]
        )
        assert code == 0
        log_lines = (tmp_path / "parity.bpe.log.jsonl").read_text().splitlines()
        first = json.loads(log_lines[0])
        assert first["mode"] == "parity"
        assert first["lang"]
        assert first["cr_snapshot"]

    def test_parity_defaults_are_the_config_defaults(self, tmp_path, small_synth_dir, capsys):
        """Without --window, --alpha and --unit, a parity run records the field
        defaults of ParityConfig, and the help states them."""
        model_out = tmp_path / "p.bpe"
        assert run(["train", "--parity", "--merges", "5", "--corpus",
                    small_synth_dir / "manifest.json", "--dev", small_synth_dir / "dev",
                    "--model-out", model_out]) == 0
        config = json.loads((tmp_path / "p.bpe.meta.json").read_text())["config"]
        defaults = ParityConfig(total_merges=5)
        assert (config["window"], config["alpha"], config["unit"]) == (
            defaults.window_size, defaults.alpha, defaults.unit.value) == (100, 2.0, "lines")
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(0 disables; default {defaults.window_size})" in help_text
        assert f"multiplier (default {defaults.alpha})" in help_text
        assert f"(default: {defaults.unit.value}; --classical" in help_text

    def test_hybrid_prefix_matches_classical(self, tmp_path, synth_dir):
        classical_out = tmp_path / "c.bpe"
        hybrid_out = tmp_path / "h.bpe"
        assert run(
            ["train", "--classical", "--merges", "40",
             "--corpus", synth_dir / "manifest.json", "--model-out", classical_out]
        ) == 0
        assert run(
            ["train", "--parity", "--hybrid-split", "0.5", "--merges", "40",
             "--corpus", synth_dir / "manifest.json", "--dev", synth_dir / "dev",
             "--model-out", hybrid_out]
        ) == 0
        classical = TokenizerModel.load(classical_out)
        hybrid = TokenizerModel.load(hybrid_out)
        assert hybrid.merges[:20] == classical.merges[:20]

    def test_no_dev(self, tmp_path, synth_dir):
        model_out = tmp_path / "nodev.bpe"
        code = run(
            ["train", "--parity", "--no-dev", "--merges", "30",
             "--corpus", synth_dir / "manifest.json", "--model-out", model_out]
        )
        assert code == 0
        meta = json.loads((tmp_path / "nodev.bpe.meta.json").read_text())
        assert meta["summary"]["cr_unit"] == "bytes"
        assert meta["config"]["unit"] == "bytes"

    # --classical and --parity --no-dev both measure compression in bytes
    @pytest.mark.parametrize(
        "mode, unit",
        [pytest.param(["--parity", "--no-dev"], u, id=u) for u in NON_BYTE_UNITS]
        + [pytest.param(["--classical"], u, id=f"classical-{u}") for u in NON_BYTE_UNITS],
    )
    def test_no_dev_rejects_other_units(self, tmp_path, synth_dir, mode, unit, capsys):
        code = run(
            ["train", *mode, "--unit", unit, "--merges", "30",
             "--corpus", synth_dir / "manifest.json", "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert "--unit bytes" in capsys.readouterr().err
        assert not (tmp_path / "m.bpe").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--window", "7"), ("--alpha", "9"), ("--hybrid-split", "0.5"), ("--dev", "nowhere")],
    )
    def test_classical_rejects_parity_flags(self, tmp_path, flag, value, capsys):
        # the corpus does not exist: the flag is rejected before it is loaded
        code = run(
            ["train", "--classical", flag, value, "--merges", "20",
             "--corpus", tmp_path / "absent.json", "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert f"--classical takes no {flag}" in capsys.readouterr().err

    def test_no_dev_rejects_dev(self, tmp_path, capsys):
        # the corpus does not exist: the flag is rejected before it is loaded
        code = run(
            ["train", "--parity", "--no-dev", "--dev", "nowhere", "--merges", "5",
             "--corpus", tmp_path / "absent.json", "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert "--no-dev takes no --dev" in capsys.readouterr().err
        assert not (tmp_path / "m.bpe").exists()

    @pytest.mark.parametrize(
        "mode, reference",
        [
            pytest.param(["--classical"], "corpus", id="classical"),
            pytest.param(["--parity", "--no-dev"], "corpus", id="no-dev"),
            pytest.param(["--parity", "--unit", "words"], "dev", id="parity"),
            pytest.param(["--parity", "--hybrid-split", "0.5", "--unit", "chars"], "dev",
                         id="hybrid"),
        ],
    )
    def test_summary_cr_matches_reencode(self, tmp_path, synth_dir, mode, reference, request):
        model_out = tmp_path / "m.bpe"
        dev_flags = ["--dev", synth_dir / "dev"] if reference == "dev" else []
        assert run(
            ["train", *mode, *dev_flags, "--merges", "40",
             "--corpus", synth_dir / "manifest.json", "--model-out", model_out]
        ) == 0
        meta = json.loads((tmp_path / "m.bpe.meta.json").read_text())
        unit = NormUnit(meta["summary"]["cr_unit"])
        model = TokenizerModel.load(model_out)
        table = compute_cr(request.getfixturevalue(reference), model, unit)
        assert meta["summary"]["per_language_cr"] == table.snapshot()

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param(b'{"text": "ok \xff", "lang": "aa"}', id="raw-byte"),
            pytest.param(b'{"text": "ok \\ud800", "lang": "aa"}', id="lone-surrogate"),
        ],
    )
    def test_bad_text_is_data_error(self, tmp_path, record, capsys):
        (tmp_path / "aa.jsonl").write_bytes(b'{"text": "fine", "lang": "aa"}\n' + record + b"\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"languages": [{"lang": "aa", "path": "aa.jsonl"}]}))
        code = run(
            ["train", "--classical", "--merges", "5",
             "--corpus", manifest, "--model-out", tmp_path / "m.bpe"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "aa.jsonl:2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_usage_error(self, tmp_path, synth_dir, alpha, capsys):
        code = run(
            ["train", "--parity", "--alpha", alpha, "--merges", "30",
             "--corpus", synth_dir / "manifest.json", "--dev", synth_dir / "dev",
             "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert "alpha must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["nan", "inf", "-inf", "1.5", "-0.5"])
    def test_bad_hybrid_split_is_usage_error(self, tmp_path, split, capsys):
        # The corpus does not exist: the split is rejected before it is read.
        code = run(
            ["train", "--parity", f"--hybrid-split={split}", "--merges", "5",
             "--corpus", tmp_path / "nope.json", "--dev", tmp_path,
             "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert "hybrid split must be in [0, 1]" in capsys.readouterr().err

    # int(100 * 0.29) is 28 and int(100 * 0.57) is 56: the float product is
    # just below the decimal one.
    @pytest.mark.parametrize("split, global_steps", [("0.29", 29), ("0.57", 57)])
    def test_hybrid_split_counts_exact_decimal(self, tmp_path, synth_dir, split, global_steps):
        model_out = tmp_path / "h.bpe"
        assert run(
            ["train", "--parity", "--hybrid-split", split, "--merges", "100",
             "--corpus", synth_dir / "manifest.json", "--dev", synth_dir / "dev",
             "--model-out", model_out]
        ) == 0
        log = TrainLog.from_jsonl(tmp_path / "h.bpe.log.jsonl")
        modes = [step.mode for step in log]
        assert modes == ["global"] * global_steps + ["parity"] * (100 - global_steps)

    def test_each_input_is_read_once(self, tmp_path, small_synth_dir, file_reads):
        manifest, dev = small_synth_dir / "manifest.json", small_synth_dir / "dev"
        model, gold = tmp_path / "m.bpe", tmp_path / "gold.tsv"
        train_config, eval_config = tmp_path / "train.json", tmp_path / "eval.json"
        train_config.write_text(json.dumps({"window": 6}))
        eval_config.write_text(json.dumps({"renyi_alpha": 3}))
        gold.write_text("ab\ta|b\n")
        dev_files = sorted(dev.glob("*.txt"))
        for argv, inputs in (
            (["train", "--parity", "--merges", "20", "--corpus", manifest, "--dev", dev,
              "--model-out", model, "--config", train_config],
             [train_config, manifest, *sorted((small_synth_dir / "train").glob("*.jsonl")),
              *dev_files]),
            (["eval", "--model", model, "--dev", dev, "--gold", gold, "--out", tmp_path / "r.json",
              "--config", eval_config],
             [eval_config, model, gold, *dev_files]),
        ):
            file_reads.clear()
            assert run(argv) == 0
            names = [str(p) for p in inputs]
            assert {name: file_reads[name] for name in names} == dict.fromkeys(names, 1)

    def test_digests_are_of_the_bytes_read(self, tmp_path, small_synth_dir, monkeypatch):
        """A file rewritten once training has read it keeps the digest of what was read."""
        corpus = tmp_path / "corpus"
        shutil.copytree(small_synth_dir, corpus)
        inputs = {"manifest": corpus / "manifest.json", "aa": corpus / "train" / "aa.jsonl",
                  "dev/bb": corpus / "dev" / "bb.txt"}
        read = {key: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                for key, path in inputs.items()}
        write = LogWriter.__call__

        def rewriting_write(self, state, record):
            if record.step == 1:
                for path in inputs.values():
                    path.write_bytes(path.read_bytes() + b"\n")
            write(self, state, record)

        monkeypatch.setattr(LogWriter, "__call__", rewriting_write)
        assert _train_into(corpus, tmp_path, 5) == 0
        digests = json.loads((tmp_path / "m.bpe.meta.json").read_text())["inputs"]
        assert {key: digests[key] for key in inputs} == read
        assert sorted(digests) == ["aa", "bb", "cc", "dev/aa", "dev/bb", "dev/cc", "manifest"]
        assert hashlib.sha256(inputs["aa"].read_bytes()).hexdigest()[:16] != read["aa"]

    @pytest.mark.parametrize("mode", [["--classical"], ["--parity", "--no-dev"], ["--parity"]],
                             ids=["classical", "no-dev", "parity"])
    def test_no_corpus_is_held_during_the_merges(self, tmp_path, small_synth_dir, monkeypatch,
                                                 mode):
        """Once the trainer state is built, nothing keeps the loaded corpora alive."""
        loaded = []

        def remembered(load):
            def wrapper(*args):
                data = load(*args)
                loaded.append(weakref.ref(data))
                if hasattr(data, "per_language"):
                    loaded.extend(weakref.ref(words) for words in data.per_language.values())
                return data

            return wrapper

        monkeypatch.setattr(cli, "load_labeled_corpus", remembered(cli.load_labeled_corpus))
        monkeypatch.setattr(cli, "load_parallel_dev", remembered(cli.load_parallel_dev))
        alive = []
        write = LogWriter.__call__

        def checking_write(self, state, record):
            alive.append(sum(ref() is not None for ref in loaded))
            write(self, state, record)

        monkeypatch.setattr(LogWriter, "__call__", checking_write)
        dev = ["--dev", small_synth_dir / "dev"] if mode == ["--parity"] else []
        assert run(["train", *mode, *dev, "--merges", "5", "--model-out", tmp_path / "m.bpe",
                    "--corpus", small_synth_dir / "manifest.json"]) == 0
        assert len(loaded) == (5 if dev else 4)
        assert alive == [0] * 5

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_usage_error(self, tmp_path, small_synth_dir, limit, capsys):
        code = run(
            ["train", "--parity", "--no-dev", f"--limit-per-language={limit}", "--merges", "5",
             "--corpus", small_synth_dir / "manifest.json", "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 1
        assert f"--limit-per-language must be >= 1, got {limit}" in capsys.readouterr().err
        assert not (tmp_path / "m.bpe").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--classical", "--merges", "-1"], "merge budget must be >= 0, got -1"),
            (["--parity", "--window", "-1", "--merges", "5", "--dev", "x"],
             "window size must be in [0, "),
            (["--parity", "--alpha", "0", "--merges", "5", "--dev", "x"], "alpha must be > 0"),
            (["--parity", "--merges", "5"], "--dev is required"),
            (["--classical", "--merges", "1113601"], "merge budget must be at most 1113600"),
            (["--parity", "--merges", "1113601", "--dev", "x"],
             "merge budget must be at most 1113600"),
            (["--parity", "--no-dev", "--unit", "lines", "--merges", "5"], "--unit bytes"),
        ],
    )
    def test_usage_checked_before_corpus(self, tmp_path, flags, message, capsys):
        # The corpus does not exist: each usage error is found before it is read.
        code = run(["train", *flags, "--corpus", tmp_path / "nope.json",
                    "--model-out", tmp_path / "m.bpe"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_missing_mode_is_usage_error(self, synth_dir, capsys):
        code = run(["train", "--merges", "10", "--corpus", synth_dir / "manifest.json"])
        assert code == 1
        assert "mode" in capsys.readouterr().err

    def test_bad_corpus_is_data_error(self, tmp_path, capsys):
        code = run(
            ["train", "--classical", "--merges", "5",
             "--corpus", tmp_path / "nope.json", "--model-out", tmp_path / "m.bpe"]
        )
        assert code == 2

    def test_config_file_supplies_defaults(self, tmp_path, synth_dir):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus": str(synth_dir / "manifest.json"),
            "merges": 25,
            "classical": True,
            "model_out": str(tmp_path / "fromcfg.bpe"),
        }))
        assert run(["train", "--config", config]) == 0
        assert TokenizerModel.load(tmp_path / "fromcfg.bpe").merges
        # explicit flags override config values
        assert run(["train", "--config", config, "--merges", "5",
                    "--model-out", tmp_path / "override.bpe"]) == 0
        assert len(TokenizerModel.load(tmp_path / "override.bpe").merges) == 5

    def test_config_values_resolve_as_flags(self, tmp_path, synth_dir):
        common = ["train", "--parity", "--corpus", synth_dir / "manifest.json",
                  "--dev", synth_dir / "dev"]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"merges": 20, "window": 3, "alpha": 3, "hybrid-split": 0, "unit": "lines"}
        ))
        assert run(common + ["--config", config, "--model-out", tmp_path / "a.bpe"]) == 0
        assert run(common + ["--merges", "20", "--window", "3", "--alpha", "3",
                             "--hybrid-split", "0", "--unit", "lines",
                             "--model-out", tmp_path / "b.bpe"]) == 0
        metas = [json.loads((tmp_path / f"{name}.bpe.meta.json").read_text()) for name in "ab"]
        assert metas[0]["config"] == metas[1]["config"]
        assert metas[0]["config_hash"] == metas[1]["config_hash"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mystery": 1}))
        assert run(["train", "--config", config]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_flag_abbreviated(self, tmp_path, small_synth_dir):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"merges": 7}))
        assert run(["train", "--classical", "--corpus", small_synth_dir / "manifest.json",
                    "--model-out", tmp_path / "m.bpe", "--conf", config]) == 0
        assert len(TokenizerModel.load(tmp_path / "m.bpe").merges) == 7

    def test_last_config_wins(self, tmp_path, small_synth_dir):
        configs = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, merges in zip(configs, (7, 9)):
            path.write_text(json.dumps({"merges": merges}))
        assert run(["train", "--classical", "--corpus", small_synth_dir / "manifest.json",
                    "--model-out", tmp_path / "m.bpe",
                    "--config", configs[0], f"--config={configs[1]}"]) == 0
        assert len(TokenizerModel.load(tmp_path / "m.bpe").merges) == 9


# A --config value for a flag that argv gives too: each is invalid, so a
# run that let the file win over the command line would fail.
_DECOYS = {"--merges": -1, "--window": -1, "--alpha": 0, "--hybrid-split": 2,
           "--limit-per-language": 0}
_SPLITS = [0.0, 0.25, 0.29, 1 / 3, 0.5, 0.7, 1.0]


@st.composite
def _train_runs(draw):
    """A drawn parity case as ``train`` input: its mode switches, and each
    given flag with its value and place (argv, the --config file, or both)."""
    corpus, dev_lines, config, no_dev = draw(parity_cases())
    mode = "no-dev" if no_dev else draw(st.sampled_from(["classical", "parity"]))
    flags = {"--merges": config.total_merges,
             "--limit-per-language": draw(st.sampled_from([None, 1, 2, 3]))}
    if mode == "classical":
        flags["--unit"] = draw(st.sampled_from([None, "bytes"]))
    else:
        flags.update({"--window": draw(st.none() | st.just(config.window_size)),
                      "--alpha": draw(st.none() | st.just(config.alpha)),
                      "--hybrid-split": draw(st.none() | st.sampled_from(_SPLITS)),
                      "--unit": draw(st.none() | st.just(config.unit.value))})
    places = {flag: draw(st.sampled_from(["argv", "config", "both"] if flag in _DECOYS
                                         else ["argv", "config"]))
              for flag, value in flags.items() if value is not None}
    switches = {"classical": ["--classical"], "parity": ["--parity"],
                "no-dev": ["--parity", "--no-dev"]}[mode]
    places.update((switch, draw(st.sampled_from(["argv", "config"]))) for switch in switches)
    return corpus, dev_lines, mode, flags, places


def _write_train_run(root: Path, corpus, dev_lines, flags, places) -> list:
    """Write the corpus as a manifest, JSONL and dev files under ``root``;
    return the argv of the run, its --config file written beside them."""
    (root / "train").mkdir()
    (root / "dev").mkdir()
    entries = []
    for lang in corpus.languages:
        records = [json.dumps({"text": word.decode(), "lang": lang}) + "\n"
                   for word, count in corpus.per_language[lang].items() for _ in range(count)]
        (root / "train" / f"{lang}.jsonl").write_text("".join(records))
        (root / "dev" / f"{lang}.txt").write_bytes(b"".join(l + b"\n" for l in dev_lines[lang]))
        entries.append({"lang": lang, "path": f"train/{lang}.jsonl"})
    (root / "dev" / "zz.txt").write_bytes(b"ab\nab\nab\nab\n")  # not a training language
    (root / "manifest.json").write_text(json.dumps({"languages": entries}))
    argv, config = ["train"], {}
    for flag, place in places.items():
        value = flags.get(flag, True)  # a mode switch is True
        if place in ("config", "both"):
            config[flag[2:]] = _DECOYS[flag] if place == "both" else value
        if place in ("argv", "both"):
            argv += [flag] if value is True else [flag, str(value)]
    if config:
        (root / "run.json").write_text(json.dumps(config))
        argv += ["--config", root / "run.json"]
    return argv + ["--corpus", root / "manifest.json", "--model-out", root / "m.bpe"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_train_runs())
def test_train_matches_the_oracles(case, tmp_path, capsys):
    """``train`` from files, argv and --config gives the log, model and meta
    config of the brute-force trainer on the corpus as read line by line."""
    corpus, dev_lines, mode, flags, places = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        root = Path(root)
        argv = _write_train_run(root, corpus, dev_lines, flags, places)
        dev_dir = None if mode != "parity" else root / "dev"
        if dev_dir is not None:
            argv += ["--dev", dev_dir]
        capsys.readouterr()
        code = run(argv)
        assert (code, capsys.readouterr().err) == (0, "")

        merges, limit = flags["--merges"], flags["--limit-per-language"]
        train, _ = per_line_load_labeled_corpus(root / "manifest.json", limit)
        split = 0.0 if flags.get("--hybrid-split") is None else flags["--hybrid-split"]
        window = flags.get("--window")
        alpha = flags.get("--alpha")
        unit = flags["--unit"] or ("lines" if mode == "parity" else "bytes")
        config = ParityConfig(merges, int(Fraction(str(split)) * merges),
                              ParityConfig.window_size if window is None else window,
                              ParityConfig.alpha if alpha is None else alpha, NormUnit(unit))
        if mode == "classical":
            summed = Counter()
            for lang in train.languages:
                summed.update(train.per_language[lang])
            expected = [dict(step, dev_tokens=None) for step in naive_parity_steps(
                train, None, ParityConfig(merges, merges, unit=NormUnit.BYTES), no_dev=True)]
            assert greedy_steps(summed, merges) == [
                (step["left"], step["right"], step["count"]) for step in expected]
        else:
            expected = naive_parity_steps(train, dev_lines, config, no_dev=mode == "no-dev")
        log = TrainLog.from_jsonl(root / "m.bpe.log.jsonl")
        assert [vars(step) for step in log] == expected
        model = TokenizerModel.load(root / "m.bpe")
        assert list(model.merges) == [(step["left"], step["right"]) for step in expected]
        meta = json.loads((root / "m.bpe.meta.json").read_text())
        assert meta["summary"]["stopped_early"] == (len(expected) < merges)
        assert meta["config"] == {
            "command": "train", "corpus": str(root / "manifest.json"), "merges": merges,
            "mode": "classical" if mode == "classical" else "parity",
            "no_dev": mode == "no-dev", "dev": dev_dir and str(dev_dir), "unit": unit,
            "window": config.window_size, "alpha": config.alpha, "hybrid_split": split,
            "limit_per_language": limit,
        }


class TestEncodeDecode:
    def test_paper_example_tokens(self, example_model, tmp_path, capsys, monkeypatch):
        code = run(["encode", "--model", example_model], monkeypatch, stdin=b"babab\n")
        assert code == 0
        assert capsys.readouterr().out == "ba bab\n"

    def test_pipe_roundtrip(self, example_model, tmp_path, classical_run):
        model, _ = classical_run
        model_path = tmp_path / "trained.bpe"
        model.save(model_path)
        rng = random.Random(31)
        lines = []
        for _ in range(50):
            # newline-free printable-ish records
            lines.append(bytes(rng.randrange(32, 127) for _ in range(rng.randint(0, 40))))
        src = tmp_path / "input.txt"
        src.write_bytes(b"\n".join(lines) + b"\n")
        encoded = tmp_path / "encoded.txt"
        decoded = tmp_path / "decoded.txt"
        assert run(["encode", "--model", model_path, "--input", src, "--output", encoded]) == 0
        assert run(["decode", "--model", model_path, "--input", encoded, "--output", decoded]) == 0
        assert decoded.read_bytes() == src.read_bytes()

    def test_id_roundtrip(self, example_model, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"babab\nbb\n")
        enc = tmp_path / "enc.txt"
        dec = tmp_path / "dec.txt"
        assert run(["encode", "--model", example_model, "--input", src,
                    "--output", enc, "--format", "ids"]) == 0
        assert enc.read_text().splitlines()[0] == "256 257"
        assert run(["decode", "--model", example_model, "--input", enc,
                    "--output", dec, "--format", "ids"]) == 0
        assert dec.read_bytes() == src.read_bytes()

    def test_encode_and_decode_never_load_openssl(self, example_model, tmp_path):
        """``hashlib`` maps OpenSSL's libcrypto. Only the commands that record a
        digest import it, so a process that encodes and decodes never does."""
        src, enc, dec = tmp_path / "in.txt", tmp_path / "enc.txt", tmp_path / "dec.txt"
        src.write_bytes(b"babab\n")
        code = ("import sys\n"
                "from parity_bpe.cli import main\n"
                "model, src, enc, dec = sys.argv[1:]\n"
                "assert main(['encode', '--model', model, '--input', src, '--output', enc]) == 0\n"
                "assert main(['decode', '--model', model, '--input', enc, '--output', dec]) == 0\n"
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-c", code, *map(str, (example_model, src, enc, dec))]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
        assert dec.read_bytes() == b"babab\n"

    def test_empty_stdin(self, example_model, capsys, monkeypatch):
        code = run(["encode", "--model", example_model], monkeypatch, stdin=b"")
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unknown_id_is_data_error(self, example_model, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("999999\n")
        code = run(["decode", "--model", example_model, "--input", src, "--format", "ids"])
        assert code == 2

    def test_missing_model_is_data_error(self, tmp_path):
        assert run(["encode", "--model", tmp_path / "none.bpe", "--input", "-"]) == 2

    def test_signed_escape_in_model_is_data_error(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "m.bpe"
        model.write_text("parity-bpe v1\nmerges:\n\\x+1\ta\n")
        assert run(["encode", "--model", model], monkeypatch, stdin=b"a\n") == 2
        err = capsys.readouterr().err
        assert "malformed escape" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_missing_input_is_data_error(self, example_model, tmp_path, command, capsys):
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        code = run([command, "--model", example_model, "--input", tmp_path / "missing.txt",
                    "--output", out])
        assert code == 2
        assert "missing.txt" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_bad_record_leaves_output_intact(self, example_model, tmp_path):
        src = tmp_path / "tokens.txt"
        src.write_bytes(b"b a\n\\xzz\n")
        out = tmp_path / "out.txt"
        out.write_text("keep\n")
        code = run(["decode", "--model", example_model, "--input", src, "--output", out])
        assert code == 2
        assert out.read_text() == "keep\n"

    def test_non_ascii_token_input_is_data_error(self, example_model, tmp_path, capsys):
        src = tmp_path / "tokens.txt"
        src.write_bytes("b \u00e9\n".encode("utf-8"))
        code = run(["decode", "--model", example_model, "--input", src,
                    "--output", tmp_path / "out.txt"])
        assert code == 2
        assert "non-ASCII" in capsys.readouterr().err


# ids 257 and 259 are both "abc"
DUPLICATE_SPAN_MERGES = [(b"b", b"c"), (b"a", b"bc"), (b"a", b"b"), (b"ab", b"c")]
# Fields that encode never writes: other spellings that decode accepts (a
# number with leading zeros, a sign or an underscore; an escape for a
# printable byte, upper-case hex), and fields it rejects (negative, out of
# range and 5000-digit ids, non-digits, non-ASCII, malformed escapes).
_ODD_FIELDS = [b"007", b"+5", b"1_0", b"-0", b"\\x41", b"\\x4A", b"\\x62\\x63", b"-1", b"260",
               b"99999", b"9" * 5000, b"abc", b"0x10", "\u00e9".encode(), b"\xff",
               "\u0663".encode(), b"\\x", b"\\xZZ", b"\\", b"\\y41", b"\\x4"]
_FIELD_SEPARATORS = [b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c", b" \t\x0c "]


@st.composite
def _decode_input(draw, canonical):
    """Lines of mostly ``canonical`` fields, some odd ones, any whitespace."""
    field = st.one_of(st.sampled_from(canonical), st.sampled_from(canonical),
                      st.sampled_from(canonical), st.sampled_from(_ODD_FIELDS))
    separator = st.sampled_from(_FIELD_SEPARATORS)
    edge = st.sampled_from([b""] + _FIELD_SEPARATORS)
    lines = []
    for fields in draw(st.lists(st.lists(field, max_size=6), max_size=8)):
        line = draw(edge)
        for i, f in enumerate(fields):
            line += (draw(separator) if i else b"") + f
        lines.append(line + draw(edge))
    return b"\n".join(lines) + (b"\n" if draw(st.booleans()) else b"")


def _decode_by_lines(model, fmt, source):
    """stdout, exit code and stderr of ``decode`` done line by line by the oracle."""
    out = []
    for line in io.BytesIO(source):
        try:
            out.append(decode_line(model, fmt, line))
        except DataError as exc:
            return b"".join(out), 2, f"data error: {exc}\n".encode()
    return b"".join(out), 0, b""


class TestDecode:
    """``decode`` looks each field up in ``text_spans``; a line with any other
    field goes through the checked path, so output, errors and exit codes are
    those of decoding each line field by field."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_line_by_line_decode(self, classical_run, tmp_path, capsysbinary, data):
        merges = data.draw(st.sampled_from([DUPLICATE_SPAN_MERGES, classical_run[0].merges]))
        model = TokenizerModel(merges)
        model_path, src = tmp_path / "m.bpe", tmp_path / "in.txt"
        model.save(model_path)
        canonical = {"ids": [b"%d" % i for i in range(len(model.id_to_bytes))],
                     "tokens": [escape_token(span).encode() for span in model.id_to_bytes]}
        for fmt in ("ids", "tokens"):
            source = data.draw(_decode_input(canonical[fmt]))
            src.write_bytes(source)
            capsysbinary.readouterr()
            code = run(["decode", "--model", model_path, "--format", fmt, "--input", src])
            captured = capsysbinary.readouterr()
            assert (captured.out, code, captured.err) == _decode_by_lines(model, fmt, source)

    def test_canonical_fields_take_one_lookup(self, classical_run, dev, tmp_path):
        model, _ = classical_run
        model_path, src = tmp_path / "m.bpe", tmp_path / "in.txt"
        model.save(model_path)
        source = b"".join(line + b"\n" for lang in dev.languages for line in dev.lines[lang])
        src.write_bytes(source)
        calls = Counter()

        def counted(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        table = Counter()  # text_spans reads id_to_bytes, decoding nothing
        for fmt, odd, checked in (("ids", b"0065\n", Counter(decode_ids=1)),
                                  ("tokens", b"\\x41\n", Counter(decode=1, unescape_token=1))):
            enc, dec = tmp_path / f"enc.{fmt}", tmp_path / f"dec.{fmt}"
            assert run(["encode", "--model", model_path, "--format", fmt,
                        "--input", src, "--output", enc]) == 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(TokenizerModel, "decode_ids",
                           counted("decode_ids", TokenizerModel.decode_ids))
                mp.setattr(TokenizerModel, "decode", counted("decode", TokenizerModel.decode))
                mp.setattr(cli, "unescape_token", counted("unescape_token", cli.unescape_token))
                calls.clear()
                assert run(["decode", "--model", model_path, "--format", fmt,
                            "--input", enc, "--output", dec]) == 0
                assert dec.read_bytes() == source
                assert calls == table
                # a spelling encode does not write takes the checked path
                enc.write_bytes(odd)
                calls.clear()
                assert run(["decode", "--model", model_path, "--format", fmt,
                            "--input", enc, "--output", dec]) == 0
                assert dec.read_bytes() == b"A\n"
                assert calls - table == checked


# Pieces of encode input: whitespace that pretokenize glues to the next word
# (CR, VT and FF included), invalid UTF-8, and a long whitespace-free run.
_ENCODE_PIECES = [b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c", b"\xff", b"\xc3", b"\xe2\x82",
                  "\u00e9".encode(), b"x" * 300]


@st.composite
def _encode_input(draw, words):
    """A stream of lines; ``words`` repeat, so the same pre-tokens recur."""
    piece = st.one_of(st.sampled_from(words), st.sampled_from(_ENCODE_PIECES),
                      st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"")))
    lines = draw(st.lists(st.lists(piece, max_size=12).map(b"".join), max_size=8))
    return b"\n".join(lines) + (b"\n" if draw(st.booleans()) else b"")


class TestEncodeOutput:
    """The CLI renders each pre-token once; its output must be what formatting
    each whole line gives, whenever its pre-token cache clears."""

    @pytest.mark.parametrize("budget", [1, 1000])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_per_line_formatters(self, classical_run, dev, tmp_path, budget, data):
        model, _ = classical_run
        model_path, src = tmp_path / "m.bpe", tmp_path / "in.txt"
        model.save(model_path)
        words = sorted({w for lang in dev.languages for line in dev.lines[lang][:5]
                        for w in line.split()})
        source = data.draw(_encode_input(words))
        src.write_bytes(source)
        records = [line.rstrip(b"\n") for line in io.BytesIO(source)]
        oracle = TokenizerModel(model.merges)
        restored = source + b"\n" if source and not source.endswith(b"\n") else source
        for fmt, formatter in (("ids", ids_line), ("tokens", tokens_line)):
            expected = "".join(formatter(oracle, record) + "\n" for record in records)
            enc, dec = tmp_path / f"enc.{fmt}", tmp_path / f"dec.{fmt}"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tokenizer, "WORD_CACHE_BYTES", budget)
                assert run(["encode", "--model", model_path, "--format", fmt,
                            "--input", src, "--output", enc]) == 0
            assert enc.read_bytes() == expected.encode("utf-8")
            assert run(["decode", "--model", model_path, "--format", fmt,
                        "--input", enc, "--output", dec]) == 0
            assert dec.read_bytes() == restored

    def test_random_bytes_encode_each_run_once(self, classical_run, tmp_path, monkeypatch):
        """Random bytes are mostly inert: the kernel sees each distinct run
        once, fewer than half as many as the distinct pre-tokens."""
        model, _ = classical_run
        model_path, src, enc = tmp_path / "m.bpe", tmp_path / "in.txt", tmp_path / "enc.ids"
        model.save(model_path)
        rng = random.Random(25)
        lines = [rng.randbytes(rng.randint(0, 80)).replace(b"\n", b"") for _ in range(2000)]
        src.write_bytes(b"".join(line + b"\n" for line in lines))
        calls = Counter()
        encode_ids = _kernels.encode_ids
        monkeypatch.setattr(_kernels, "encode_ids",
                            lambda ids, table: calls.update(["kernel"]) or encode_ids(ids, table))
        assert run(["encode", "--model", model_path, "--format", "ids",
                    "--input", src, "--output", enc]) == 0
        runs = model.run_splitter()
        assert calls["kernel"] <= len({run for line in lines for run in runs(line)})
        assert calls["kernel"] * 2 < len({word for line in lines for word in pretokenize(line)})
        monkeypatch.undo()
        oracle = TokenizerModel(model.merges)
        assert enc.read_text() == "".join(ids_line(oracle, line) + "\n" for line in lines)


# Pieces of the training lines and of the encode input: letters, whitespace
# runs (CR, VT and FF included), NUL, 0xff and a UTF-8 pair. Training makes
# some of them active and leaves the others inert.
_ORACLE_PIECES = [b"a", b"b", b"x", b"y", b"ab", b"xy", b" ", b"  ", b"\t", b"\r\x0b\x0c",
                  b" \t ", b"\x00", b"\xff", b"\xc3\xa9"]
_BLANKS = b" \t\r\x0b\x0c"


@st.composite
def _encode_cases(draw):
    """A classical model trained through the library on drawn lines, and the
    lines to encode with it: active and inert bytes, whitespace runs, NUL and
    0xff, and one line holding a whitespace-free run of 200 or more active
    bytes, after two spaces and before a whitespace run. Returns the model,
    the lines and the input file's bytes."""
    line = st.lists(st.sampled_from(_ORACLE_PIECES), min_size=1, max_size=10).map(b"".join)
    words = Counter(w for text in draw(st.lists(line, min_size=1, max_size=6))
                    for w in pretokenize(text))
    # the first merges are x + y and " " + xy, so a space joins the word after it
    words.update({b"xy": 100, b" xy": 100})
    model, _ = train_classical(LabeledCorpus.from_multisets({"aa": words}),
                               draw(st.integers(2, 25)))
    active = set(b"".join(model.id_to_bytes[256:]))
    inert = sorted(set(range(256)) - active - {ord("\n")})
    blanks = st.lists(st.sampled_from(_BLANKS), min_size=1, max_size=4).map(bytes)
    piece = st.one_of(st.sampled_from(model.id_to_bytes[256:]), st.sampled_from(_ORACLE_PIECES),
                      st.sampled_from(inert).map(lambda b: bytes([b])), blanks)
    lines = draw(st.lists(st.lists(piece, max_size=12).map(b"".join), max_size=6))
    letters = sorted(active - set(_BLANKS))
    long_run = b"xy" + bytes(letters[b % len(letters)]
                             for b in draw(st.binary(min_size=200, max_size=240)))
    lines.insert(draw(st.integers(0, len(lines))), draw(piece) + b"  " + long_run + draw(blanks))
    source = b"".join(text + b"\n" for text in lines)
    if lines[-1] and draw(st.booleans()):
        source = source[:-1]  # no newline at the end of the input
    return model, lines, source


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_encode_cases())
def test_encode_and_decode_match_the_oracles(case, tmp_path, capsysbinary):
    """``encode`` of drawn lines, from files and through stdin and stdout, writes
    each line's merge replay as canonical ids or escaped spans; ``decode`` of
    that output gives the lines back."""
    model, lines, source = case
    model_path, src = tmp_path / "m.bpe", tmp_path / "in.txt"
    enc, dec = tmp_path / "enc.txt", tmp_path / "dec.txt"
    model.save(model_path)
    src.write_bytes(source)
    canonical = {}
    for i, span in enumerate(model.id_to_bytes):
        canonical.setdefault(span, i)
    render = {"ids": lambda span: b"%d" % canonical[span],
              "tokens": lambda span: escape_token(span).encode("ascii")}
    restored = b"".join(text + b"\n" for text in lines)
    for fmt in ("ids", "tokens"):
        expected = b"".join(b" ".join(map(render[fmt], replay_encode(model.merges, text))) + b"\n"
                            for text in lines)
        encode = ["encode", "--model", model_path, "--format", fmt]
        decode = ["decode", "--model", model_path, "--format", fmt]
        assert run(encode + ["--input", src, "--output", enc]) == 0
        assert enc.read_bytes() == expected
        assert run(decode + ["--input", enc, "--output", dec]) == 0
        assert dec.read_bytes() == restored
        with pytest.MonkeyPatch.context() as mp:
            capsysbinary.readouterr()
            assert run(encode, mp, stdin=source) == 0
            assert capsysbinary.readouterr() == (expected, b"")
            assert run(decode, mp, stdin=expected) == 0
            assert capsysbinary.readouterr() == (restored, b"")


TRAIN_OUTPUTS = ("m.bpe", "m.bpe.log.jsonl", "m.bpe.meta.json")


def _train_into(synth, out_dir, merges):
    return run(["train", "--parity", "--merges", merges, "--corpus", synth / "manifest.json",
                "--dev", synth / "dev", "--model-out", out_dir / "m.bpe"])


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _interrupt_partial_write(text):
    """A writer for ``path`` that writes part of ``text`` and is then interrupted."""
    def write(self, path):
        Path(path).write_text(text[: len(text) // 2])
        raise KeyboardInterrupt

    return write


class _InterruptedFile:
    """An open file whose third write raises ``KeyboardInterrupt``."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise KeyboardInterrupt
        return self.fh.write(data)


_COLLIDING_TRAIN = ["train", "--classical", "--merges", "5", "--corpus", "{corpus}/manifest.json"]
_COLLIDING_EVAL = ["eval", "--model", "{tmp}/model.bpe", "--dev", "{corpus}/dev"]
# argv in which an output names another output or an input of the command,
# with the start of the refusal; {corpus} is a copy of a small corpus, and
# {tmp}/link.bpe a symlink to {tmp}/model.bpe
COLLIDING_ARGV = {
    "train-log-out-is-model-out": (
        _COLLIDING_TRAIN + ["--model-out", "{tmp}/m.bpe", "--log-out", "{tmp}/m.bpe"],
        "--log-out {tmp}/m.bpe names the same file as --model-out {tmp}/m.bpe",
    ),
    "train-log-out-is-meta": (
        _COLLIDING_TRAIN + ["--model-out", "{tmp}/m.bpe", "--log-out", "{tmp}/m.bpe.meta.json"],
        "the meta file {tmp}/m.bpe.meta.json names the same file as --log-out",
    ),
    "train-model-out-is-corpus": (
        _COLLIDING_TRAIN + ["--model-out", "{corpus}/manifest.json"],
        "--model-out {corpus}/manifest.json would overwrite --corpus",
    ),
    "eval-csv-is-out": (
        _COLLIDING_EVAL + ["--out", "{tmp}/r.json", "--csv", "{tmp}/r.json"],
        "--csv {tmp}/r.json names the same file as --out {tmp}/r.json",
    ),
    "eval-out-is-model": (
        _COLLIDING_EVAL + ["--out", "{tmp}/model.bpe"],
        "--out {tmp}/model.bpe would overwrite --model {tmp}/model.bpe",
    ),
    "eval-csv-is-model": (
        _COLLIDING_EVAL + ["--csv", "{tmp}/model.bpe"],
        "--csv {tmp}/model.bpe would overwrite --model",
    ),
    "eval-out-is-gold": (
        _COLLIDING_EVAL + ["--gold", "{tmp}/gold.tsv", "--out", "{tmp}/gold.tsv"],
        "--out {tmp}/gold.tsv would overwrite --gold",
    ),
    "encode-output-is-model": (
        ["encode", "--model", "{tmp}/model.bpe", "--input", "{tmp}/text.txt",
         "--output", "{tmp}/model.bpe"],
        "--output {tmp}/model.bpe would overwrite --model",
    ),
    "encode-output-links-to-model": (
        ["encode", "--model", "{tmp}/model.bpe", "--input", "{tmp}/text.txt",
         "--output", "{tmp}/link.bpe"],
        "--output {tmp}/link.bpe would overwrite --model {tmp}/model.bpe",
    ),
    "decode-output-is-model": (
        ["decode", "--model", "{tmp}/model.bpe", "--input", "{tmp}/tokens.txt",
         "--output", "{tmp}/model.bpe"],
        "--output {tmp}/model.bpe would overwrite --model",
    ),
    "compare-csv-is-model": (
        ["compare", "{tmp}/model.bpe", "{tmp}/other.bpe", "--dev", "{corpus}/dev",
         "--csv", "{tmp}/other.bpe"],
        "--csv {tmp}/other.bpe would overwrite model {tmp}/other.bpe",
    ),
    "train-model-out-is-training-file": (
        _COLLIDING_TRAIN + ["--model-out", "{corpus}/train/aa.jsonl"],
        "--model-out {corpus}/train/aa.jsonl would overwrite the aa training file",
    ),
    "train-log-out-is-dev-file": (
        ["train", "--parity", "--merges", "5", "--corpus", "{corpus}/manifest.json",
         "--dev", "{corpus}/dev", "--model-out", "{tmp}/m.bpe", "--log-out", "{corpus}/dev/bb.txt"],
        "--log-out {corpus}/dev/bb.txt would overwrite --dev file {corpus}/dev/bb.txt",
    ),
    "eval-out-is-dev-file": (
        _COLLIDING_EVAL + ["--out", "{corpus}/dev/aa.txt"],
        "--out {corpus}/dev/aa.txt would overwrite --dev file {corpus}/dev/aa.txt",
    ),
    "eval-csv-is-dev-file": (
        _COLLIDING_EVAL + ["--langs", "cc", "--csv", "{corpus}/dev/cc.txt"],
        "--csv {corpus}/dev/cc.txt would overwrite --dev file",
    ),
    "compare-csv-is-dev-file": (
        ["compare", "{tmp}/model.bpe", "{tmp}/other.bpe", "--dev", "{corpus}/dev",
         "--csv", "{corpus}/dev/bb.txt"],
        "--csv {corpus}/dev/bb.txt would overwrite --dev file {corpus}/dev/bb.txt",
    ),
}


def _tree(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


class TestOutputs:
    """Each output file is replaced only once the command that writes it completes."""

    @pytest.mark.parametrize(
        "where",
        ["model", "log", "meta", "rename-model", "rename-log", "rename-meta"],
    )
    def test_interrupted_train_leaves_a_consistent_run(
        self, tmp_path, small_synth_dir, monkeypatch, where
    ):
        new_dir, run_dir = tmp_path / "new", tmp_path / "run"
        new_dir.mkdir()
        run_dir.mkdir()
        assert _train_into(small_synth_dir, new_dir, 8) == 0
        assert _train_into(small_synth_dir, run_dir, 4) == 0
        new, old = _files(new_dir), _files(run_dir)
        assert sorted(old) == sorted(TRAIN_OUTPUTS)
        assert all(old[name] != new[name] for name in TRAIN_OUTPUTS)

        if where == "model":
            monkeypatch.setattr(TokenizerModel, "save", _interrupt_partial_write(
                new["m.bpe"].decode()))
        elif where == "log":  # the log is streamed: interrupted partway through the merges
            write = LogWriter.__call__

            def interrupted_write(self, state, record):
                if record.step == 4:
                    raise KeyboardInterrupt
                write(self, state, record)

            monkeypatch.setattr(LogWriter, "__call__", interrupted_write)
        elif where == "meta":
            dumps = json.dumps

            def interrupted_dumps(obj, **kwargs):
                if "indent" in kwargs:  # only the meta is indented
                    raise KeyboardInterrupt
                return dumps(obj, **kwargs)

            monkeypatch.setattr(json, "dumps", interrupted_dumps)
        else:
            name = TRAIN_OUTPUTS[["rename-model", "rename-log", "rename-meta"].index(where)]
            replace = os.replace

            def interrupted_replace(src, dst):
                if os.path.basename(dst) == name:
                    raise KeyboardInterrupt
                replace(src, dst)

            monkeypatch.setattr(os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            _train_into(small_synth_dir, run_dir, 8)
        monkeypatch.undo()

        now = _files(run_dir)
        assert not [name for name in now if name.endswith(".tmp")]
        for name, data in now.items():
            assert data in (old[name], new[name]), name
        if where in ("model", "log", "meta"):  # before any rename: the earlier run stays whole
            assert now == old
        else:  # at a rename: the earlier meta is gone, so no meta sits beside another run
            assert "m.bpe.meta.json" not in now

    def test_unwritable_log_writes_nothing(self, tmp_path, small_synth_dir, capsys):
        code = run(["train", "--classical", "--merges", "5",
                    "--corpus", small_synth_dir / "manifest.json",
                    "--model-out", tmp_path / "m.bpe", "--log-out", tmp_path / "no" / "l.jsonl"])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, source",
        [("encode", b"babab\nbb\n" * 5), ("decode", b"256 257\n98 98\n" * 5)],
        ids=["encode", "decode"],
    )
    def test_interrupted_stream_keeps_old_output(
        self, example_model, tmp_path, monkeypatch, command, source
    ):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_bytes(source)
        out.write_bytes(b"old\n")

        def interrupting_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return _InterruptedFile(fh) if "w" in mode else fh

        monkeypatch.setattr(cli, "open", interrupting_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            run([command, "--model", example_model, "--format", "ids",
                 "--input", src, "--output", out])
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["example.bpe", "in.txt", "out.txt"]

    @pytest.mark.parametrize(
        "source, tokens, ids",
        [
            pytest.param(b"babab", b"ba bab\n", b"256 257\n", id="no-trailing-newline"),
            pytest.param(b"babab\r\nab\r\n", b"ba bab \\x0d\na b \\x0d\n",
                         b"256 257 13\n97 98 13\n", id="crlf"),
            pytest.param(b"\nbab\n\n\nb\n", b"\nbab\n\n\nb\n", b"\n257\n\n\n98\n",
                         id="blank-lines"),
            pytest.param(b"", b"", b"", id="empty"),
            pytest.param(b"\n", b"\n", b"\n", id="lone-newline"),
        ],
    )
    def test_edge_input_bytes(self, example_model, tmp_path, source, tokens, ids):
        src = tmp_path / "in.txt"
        src.write_bytes(source)
        # every record gets a "\n", so the round trip adds one a last line lacks
        restored = source + b"\n" if source and not source.endswith(b"\n") else source
        for fmt, expected in (("tokens", tokens), ("ids", ids)):
            enc, dec = tmp_path / f"enc.{fmt}", tmp_path / f"dec.{fmt}"
            assert run(["encode", "--model", example_model, "--format", fmt,
                        "--input", src, "--output", enc]) == 0
            assert enc.read_bytes() == expected
            assert run(["decode", "--model", example_model, "--format", fmt,
                        "--input", enc, "--output", dec]) == 0
            assert dec.read_bytes() == restored

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_device_is_written_in_place(self, example_model, tmp_path, command):
        src = tmp_path / "in.txt"
        src.write_bytes(b"ba b\n")
        assert run([command, "--model", example_model, "--input", src,
                    "--output", "/dev/null"]) == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["example.bpe", "in.txt"]

    def test_file_mode(self, example_model, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"babab\n")
        with open(tmp_path / "plain", "w"):
            pass
        new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
        kept.write_bytes(b"old\n")
        kept.chmod(0o640)
        for out in (new, kept):
            assert run(["encode", "--model", example_model, "--input", src, "--output", out]) == 0
            assert out.read_bytes() == b"ba bab\n"
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640

    def test_symlink_is_written_through(self, example_model, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"babab\n")
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "out.txt", tmp_path / "link.txt"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        assert run(["encode", "--model", example_model, "--input", src, "--output", link]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == b"ba bab\n"
        assert sorted(p.name for p in target.parent.iterdir()) == ["out.txt"]


    @pytest.mark.parametrize(
        "argv, message", list(COLLIDING_ARGV.values()), ids=list(COLLIDING_ARGV)
    )
    def test_output_naming_another_file_is_usage_error(
        self, tmp_path, small_synth_dir, capsys, file_reads, argv, message
    ):
        shutil.copytree(small_synth_dir, tmp_path / "corpus")
        # refused before any data is read, so a malformed file is never reached
        (tmp_path / "corpus" / "train" / "bb.jsonl").write_text("{not json\n")
        (tmp_path / "model.bpe").write_text(EXAMPLE_MODEL)
        (tmp_path / "other.bpe").write_text(EXAMPLE_MODEL)
        (tmp_path / "link.bpe").symlink_to(tmp_path / "model.bpe")
        (tmp_path / "gold.tsv").write_text("ab\ta|b\n")
        (tmp_path / "text.txt").write_bytes(b"babab\n")
        (tmp_path / "tokens.txt").write_bytes(b"ba b\n")
        before = _tree(tmp_path)
        file_reads.clear()
        paths = {"tmp": tmp_path, "corpus": tmp_path / "corpus"}
        code = run([arg.format(**paths) for arg in argv])
        assert code == 1
        assert f"error: {message.format(**paths)}" in capsys.readouterr().err
        # train reads its manifest first, to name the data files it checks
        names_data_file = argv[0] == "train" and ("training file" in message
                                                  or "--dev file" in message)
        manifest = str(tmp_path / "corpus" / "manifest.json")
        assert dict(file_reads) == ({manifest: 1} if names_data_file else {})
        assert _tree(tmp_path) == before

    def test_output_may_name_the_input(self, example_model, tmp_path):
        text = tmp_path / "text.txt"
        text.write_bytes(b"babab\n")
        assert run(["encode", "--model", example_model, "--input", text, "--output", text]) == 0
        assert text.read_bytes() == b"ba bab\n"
        assert run(["decode", "--model", example_model, "--input", text, "--output", text]) == 0
        assert text.read_bytes() == b"babab\n"

    @pytest.mark.parametrize("out", ["-", "/dev/null"])
    def test_stdout_and_devices_may_repeat(self, tmp_path, small_synth_dir, capsys, out):
        model = tmp_path / "model.bpe"
        model.write_text(EXAMPLE_MODEL)
        assert run(["eval", "--model", model, "--dev", small_synth_dir / "dev",
                    "--out", out, "--csv", out]) == 0
        assert run(["compare", model, model, "--dev", small_synth_dir / "dev",
                    "--csv", out]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bpe"]


class TestEval:
    def test_identity_report(self, tmp_path, synth_dir, capsys):
        model_path = tmp_path / "identity.bpe"
        TokenizerModel([]).save(model_path)
        out = tmp_path / "report.json"
        code = run(["eval", "--model", model_path, "--dev", synth_dir / "dev", "--out", out])
        assert code == 0
        report = MetricReport.from_json(out.read_text())
        assert report.global_metrics["cr_bytes_ratio_of_sums"] == 1.0
        assert report.provenance["model_digest"] == hashlib.sha256(
            model_path.read_bytes()).hexdigest()[:16]

    def test_matches_library_call(self, tmp_path, synth_dir, classical_run, dev):
        model, _ = classical_run
        model_path = tmp_path / "m.bpe"
        model.save(model_path)
        out = tmp_path / "report.json"
        assert run(["eval", "--model", model_path, "--dev", synth_dir / "dev", "--out", out]) == 0
        report = MetricReport.from_json(out.read_text())
        expected = full_report(TokenizerModel.load(model_path), dev)
        assert report.global_metrics == expected.global_metrics
        assert report.per_language == expected.per_language

    def test_csv_written(self, tmp_path, synth_dir):
        model_path = tmp_path / "identity.bpe"
        TokenizerModel([]).save(model_path)
        csv_path = tmp_path / "per_lang.csv"
        assert run(["eval", "--model", model_path, "--dev", synth_dir / "dev",
                    "--out", tmp_path / "r.json", "--csv", csv_path]) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("language,")
        assert len(rows) == 1 + 3 + 1  # header + langs + global

    def test_gold_flag(self, tmp_path, synth_dir):
        model_path = tmp_path / "identity.bpe"
        TokenizerModel([]).save(model_path)
        gold = tmp_path / "gold.tsv"
        gold.write_text("ab\ta|b\n")
        out = tmp_path / "report.json"
        assert run(["eval", "--model", model_path, "--dev", synth_dir / "dev",
                    "--gold", gold, "--out", out]) == 0
        report = MetricReport.from_json(out.read_text())
        assert report.global_metrics["morph_boundary_recall"] == 1.0


    @pytest.mark.parametrize("given, meant", [("aa,aa", "aa"), ("bb,aa,bb", "aa,bb")])
    def test_duplicate_langs_count_once(self, tmp_path, synth_dir, classical_run, given, meant):
        model_path = tmp_path / "m.bpe"
        classical_run[0].save(model_path)
        for langs, name in ((given, "given"), (meant, "meant")):
            assert run(["eval", "--model", model_path, "--dev", synth_dir / "dev",
                        "--langs", langs, "--out", tmp_path / f"{name}.json"]) == 0
        assert (tmp_path / "given.json").read_bytes() == (tmp_path / "meant.json").read_bytes()
        report = MetricReport.from_json((tmp_path / "given.json").read_text())
        assert report.provenance["languages"] == meant.split(",")


    # 10**400 is too large for a float: --renyi-alpha reads it as inf
    @pytest.mark.parametrize("alpha", [3, 10**400], ids=["int", "huge-int"])
    def test_config_renyi_alpha_resolves_as_flag(self, tmp_path, small_synth_dir, alpha):
        model_path, dev = tmp_path / "m.bpe", small_synth_dir / "dev"
        TokenizerModel([]).save(model_path)
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"renyi_alpha": alpha}))
        assert run(["eval", "--model", model_path, "--dev", dev, "--config", config,
                    "--out", tmp_path / "a.json"]) == 0
        assert run(["eval", "--model", model_path, "--dev", dev, "--renyi-alpha", str(alpha),
                    "--out", tmp_path / "b.json"]) == 0
        reports = [(tmp_path / name).read_bytes() for name in ("a.json", "b.json")]
        assert reports[0] == reports[1]
        assert MetricReport.from_json(reports[0].decode()).provenance["config_hash"]

    @pytest.mark.parametrize("alpha", ["nan", "0", "-1"])
    def test_bad_renyi_order_is_usage_error(self, tmp_path, synth_dir, monkeypatch, capsys, alpha):
        calls = _forbid_loading(monkeypatch)
        code = run(["eval", "--model", tmp_path / "m.bpe", "--dev", synth_dir / "dev",
                    "--renyi-alpha", alpha, "--out", tmp_path / "r.json"])
        assert code == 1
        assert "Renyi order must be > 0" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("langs", [",", "aa,"])
    def test_empty_language_name_is_usage_error(self, tmp_path, synth_dir, monkeypatch, capsys,
                                                langs):
        calls = _forbid_loading(monkeypatch)
        code = run(["eval", "--model", tmp_path / "m.bpe", "--dev", synth_dir / "dev",
                    "--langs", langs, "--out", tmp_path / "r.json"])
        assert code == 1
        assert "--langs" in capsys.readouterr().err
        assert calls == []


class TestCompare:
    def test_parity_shows_lower_gini(self, tmp_path, synth_dir, classical_run, parity_run, capsys):
        cpath = tmp_path / "a_classical.bpe"
        ppath = tmp_path / "b_parity.bpe"
        classical_run[0].save(cpath)
        parity_run[0].save(ppath)
        csv_path = tmp_path / "compare.csv"
        code = run(["compare", cpath, ppath, "--dev", synth_dir / "dev", "--csv", csv_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "gini_tokens_per_line" in out
        import csv as csvmod

        with open(csv_path) as fh:
            rows = {row[0]: row[1:] for row in csvmod.reader(fh)}
        gini_row = [float(x) for x in rows["gini_tokens_per_line"]]
        assert gini_row[1] < gini_row[0]

    def test_same_model_identical_columns(self, tmp_path, synth_dir, capsys):
        p1 = tmp_path / "m1.bpe"
        p2 = tmp_path / "m2.bpe"
        TokenizerModel([(b"a", b"b")]).save(p1)
        TokenizerModel([(b"a", b"b")]).save(p2)
        csv_path = tmp_path / "cmp.csv"
        assert run(["compare", p1, p2, "--dev", synth_dir / "dev", "--csv", csv_path]) == 0
        import csv as csvmod

        with open(csv_path) as fh:
            for row in csvmod.reader(fh):
                if row[0] != "metric":
                    assert row[1] == row[2]

    def test_three_models_ordered_by_filename(self, tmp_path, synth_dir, capsys):
        paths = [tmp_path / name for name in ("c.bpe", "a.bpe", "b.bpe")]
        for p in paths:
            TokenizerModel([(b"a", b"b")]).save(p)
        assert run(["compare", *paths, "--dev", synth_dir / "dev"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.index("a.bpe") < header.index("b.bpe") < header.index("c.bpe")

    def test_shared_file_names_are_headed_by_their_paths(self, tmp_path, synth_dir, capsys):
        a, b = tmp_path / "a" / "model.bpe", tmp_path / "b" / "model.bpe"
        unique = tmp_path / "c.bpe"
        for p in (a, b, unique):
            p.parent.mkdir(exist_ok=True)
            TokenizerModel([(b"a", b"b")]).save(p)
        csv_path = tmp_path / "cmp.csv"
        assert run(["compare", b, unique, a, "--dev", synth_dir / "dev", "--csv", csv_path]) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        # by file name, then in the order given; only the shared name is a path
        assert header == ["metric", "c.bpe", str(b), str(a)]
        assert csv_path.read_text().splitlines()[0] == f"metric,c.bpe,{b},{a}"

    def test_reports_differ_only_in_model_fields(self, tmp_path, synth_dir):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        m1, m2 = tmp_path / "m1.bpe", tmp_path / "m2.bpe"
        TokenizerModel([]).save(m1)
        TokenizerModel([(b"a", b"b")]).save(m2)
        assert run(["eval", "--model", m1, "--dev", synth_dir / "dev", "--out", out1]) == 0
        assert run(["eval", "--model", m2, "--dev", synth_dir / "dev", "--out", out2]) == 0
        r1 = MetricReport.from_json(out1.read_text())
        r2 = MetricReport.from_json(out2.read_text())
        assert set(r1.per_language) == set(r2.per_language)
        for key in ("languages", "n_lines", "renyi_alpha", "dev"):
            assert r1.provenance[key] == r2.provenance[key]
        for key in ("model", "model_digest", "vocab_size"):
            assert r1.provenance[key] != r2.provenance[key]

    def test_vocab_mismatch_warns(self, tmp_path, synth_dir, capsys):
        p1 = tmp_path / "m1.bpe"
        p2 = tmp_path / "m2.bpe"
        TokenizerModel([]).save(p1)
        TokenizerModel([(b"a", b"b")]).save(p2)
        assert run(["compare", p1, p2, "--dev", synth_dir / "dev"]) == 0
        assert "vocabulary sizes differ" in capsys.readouterr().err

    def test_duplicate_langs_count_once(self, tmp_path, synth_dir, classical_run, capsys):
        p1, p2 = tmp_path / "m1.bpe", tmp_path / "m2.bpe"
        classical_run[0].save(p1)
        TokenizerModel([]).save(p2)
        outputs = []
        for langs in ("bb,aa,bb", "aa,bb"):
            assert run(["compare", p1, p2, "--dev", synth_dir / "dev", "--langs", langs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_needs_two_models(self, tmp_path, synth_dir):
        p1 = tmp_path / "m1.bpe"
        TokenizerModel([]).save(p1)
        assert run(["compare", p1, "--dev", synth_dir / "dev"]) == 1

    @pytest.mark.parametrize("alpha", ["nan", "0", "-1"])
    def test_bad_renyi_order_is_usage_error(self, tmp_path, synth_dir, monkeypatch, capsys, alpha):
        calls = _forbid_loading(monkeypatch)
        code = run(["compare", tmp_path / "m1.bpe", tmp_path / "m2.bpe",
                    "--dev", synth_dir / "dev", "--renyi-alpha", alpha])
        assert code == 1
        assert "Renyi order must be > 0" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("langs", [",", "aa,"])
    def test_empty_language_name_is_usage_error(self, tmp_path, synth_dir, monkeypatch, capsys,
                                                langs):
        calls = _forbid_loading(monkeypatch)
        code = run(["compare", tmp_path / "m1.bpe", tmp_path / "m2.bpe",
                    "--dev", synth_dir / "dev", "--langs", langs])
        assert code == 1
        assert "--langs" in capsys.readouterr().err
        assert calls == []


class TestSynth:
    def test_deterministic(self, tmp_path):
        args = ["synth", "--langs", "xx,yy", "--proportions", "0.5,0.5",
                "--dev-lines", "5", "--train-bytes", "3000", "--seed", "9"]
        assert run(args + ["--out", tmp_path / "one"]) == 0
        assert run(args + ["--out", tmp_path / "two"]) == 0
        for rel in ("manifest.json", "train/xx.jsonl", "dev/yy.txt"):
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_bad_proportions_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--out", tmp_path / "x", "--langs", "a,b",
                    "--proportions", "0.9,0.3"]) == 1

    def test_spec_config_file(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "languages": ["pp", "qq"],
            "proportions": [0.6, 0.4],
            "dev_lines": 4,
            "total_train_bytes": 2000,
        }))
        out = tmp_path / "corpus"
        assert run(["synth", "--config", config, "--out", out]) == 0
        dev = load_parallel_dev(out / "dev", ["pp", "qq"])
        assert dev.n_lines == 4

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        args = ["synth", "--out", out, "--train-bytes", "3000", "--dev-lines", "5"]
        assert run(args + ["--langs", "aa,bb", "--seed", "1"]) == 0
        # the second language's file name is too long to create
        assert run(args + ["--langs", "aa," + "b" * 300, "--seed", "2"]) == 2
        assert (out / "train" / "aa.jsonl").exists()
        assert not (out / "manifest.json").exists()
        assert not (out / "synth_stats.json").exists()

    @pytest.mark.parametrize("name", [n for n in BAD_INPUT_ARGV if n.startswith("synth-code-")])
    def test_code_that_cannot_name_a_file_writes_nothing(self, name, tmp_path, capsys):
        for file_name, content in BAD_INPUT_FILES.items():
            (tmp_path / file_name).write_text(content)
        before = sorted(tmp_path.rglob("*"))
        assert run([arg.format(tmp=tmp_path) for arg in BAD_INPUT_ARGV[name]]) == 1
        assert "cannot name a file" in capsys.readouterr().err
        # nothing under --out ({tmp}/corpus) or beside it
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name, message", [
        ("synth-config-unknown-key",
         "unknown config keys: ['dev_line', 'train_bytes', 'vocab_sise']"),
        ("synth-config-train-bytes-huge", "must fit in a float"),
        ("synth-config-proportion-huge", "must fit in a float"),
        ("synth-vocab-size-over-ceiling", f"vocab_size must be at most {synthetic.MAX_VOCAB_SIZE}"),
        ("synth-dev-lines-over-ceiling", f"dev_lines must be at most {synthetic.MAX_DEV_LINES}"),
        ("synth-train-bytes-over-ceiling",
         f"total_train_bytes must be at most {synthetic.MAX_TRAIN_BYTES}"),
        ("synth-config-train-bytes-nan", "total_train_bytes must be positive"),
        ("synth-config-words-per-line-over-ceiling",
         f"words_per_line must be at most {synthetic.MAX_WORDS_PER_LINE}"),
    ])
    def test_bad_spec_writes_nothing(self, name, message, tmp_path, capsys):
        for file_name, content in BAD_INPUT_FILES.items():
            (tmp_path / file_name).write_text(content)
        before = sorted(tmp_path.rglob("*"))
        assert run([arg.format(tmp=tmp_path) for arg in BAD_INPUT_ARGV[name]]) == 1
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


def _config_key_cases():
    """(command, flag, value) for each --config-able flag of train and eval, and
    each kind of value it takes: a string, an int, an int for a float flag, a
    float, or true for a switch."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("train", "eval"):
        for action in commands.choices[command]._actions:
            if action.dest in ("help", "config"):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                values = [True]
            elif action.type is int:
                values = ["7", 7]
            elif action.type is float:
                values = ["0.25", 7, 0.25]
            else:
                values = [sorted(action.choices)[0] if action.choices else "a value"]
            for value in values:
                yield pytest.param(command, flag, value, id=f"{command} {flag}={value!r}")


@pytest.mark.parametrize("command, flag, value", list(_config_key_cases()))
def test_config_key_parses_as_its_flag(command, flag, value, tmp_path):
    """A config key gives the Namespace its flag gives on the command line."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({flag[2:]: value}))
    parser = cli.build_parser()
    typed = [flag] if value is True else [flag, str(value)]
    from_config = cli._parse_args(parser, [command, "--config", str(config)])
    from_argv = parser.parse_args([command, "--config", str(config), *typed])
    assert vars(from_config) == vars(from_argv)
    # == alone would take 7 for 7.0
    assert {k: type(v) for k, v in vars(from_config).items()} == {
        k: type(v) for k, v in vars(from_argv).items()
    }


class TestUsage:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["train", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", list(BAD_INPUT_ARGV.values()), ids=list(BAD_INPUT_ARGV))
    def test_bad_input_exits_without_traceback(
        self, argv, tmp_path, synth_dir, example_model, capsys
    ):
        for name, content in BAD_INPUT_FILES.items():
            (tmp_path / name).write_text(content)
        paths = {"tmp": tmp_path, "synth": synth_dir, "model": example_model}
        code = run([arg.format(**paths) for arg in argv])
        assert code in (1, 2)
        assert "Traceback" not in capsys.readouterr().err
