"""Golden determinism: training on the session fixture reproduces pinned bytes.

The hashes were taken from a run of the trainer before its per-word counts
became sparse and its heaps lazy; any change to what is learned, or to how
the model and log are written, shows up here as a hash mismatch. A run
under two hash seeds must also write the same model, log and meta. What the
golden classical and parity models report (``full_report``, ``eval --csv``,
``compare``) and encode on the fixture dev set is pinned the same way.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parity_bpe
from parity_bpe import NormUnit, ParityConfig, train_no_dev, train_parity
from parity_bpe.cli import main
from parity_bpe.trainer import LogWriter

from .conftest import MERGE_BUDGET

# run -> (sha256 of the saved model, sha256 of the JSONL train log)
GOLDEN = {
    "classical": (
        "aa0921517117f8a00ea40c8ea59d66774422bda396a4baf0f58fd14bac0579d5",
        "b136b81ff49565f4f899f0570475472cfa83e048c4f17caaf56d566302ca34e5",
    ),
    "hybrid": (
        "751b63c4108b2841c54623eedb8788fa5d5b7c4d6937a71ad8c2903733f282e8",
        "82b748c77789f3358bb6d8638552963dfe13fbfe05557bab8421bef4d48f0a02",
    ),
    "no_dev": (
        "b18f6a224c6c47032591c9757b3d89343ae5494ea194e8f50ec8b56d4c2edda7",
        "8f2e667d3d3b337edce8795355b748e1b4580c34a31bdc936fba0c66de89a802",
    ),
    "parity": (
        "0ab5df0d84ecda76e4a3abcfbe114ae109a36f0ec4f308106328dd117e92534f",
        "9c9c6b3edb005a9f170c3406cc1d7a24b6b7c3c23db3f76333b82749ec20e94b",
    ),
    # the same merges as "parity", its log's compression rates in bytes
    "parity_bytes": (
        "0ab5df0d84ecda76e4a3abcfbe114ae109a36f0ec4f308106328dd117e92534f",
        "24212f690be17a8b06ade262706c934a08f3818410ec5b4d1791952080c69da1",
    ),
    "window": (
        "c3ac740daa6abc097bb290d31dd51cf6f3084f9df1bc17f04c726b005d98ce8f",
        "9a516d17dc91c153b0731421b43d9957d60e8284fbe0970b7ba191c89d7c1903",
    ),
}


# the CLI flags that train each run above
CLI_FLAGS = {
    "classical": ["--classical"],
    "hybrid": ["--parity", "--hybrid-split", "0.5", "--window", "0", "--dev", "{dev}"],
    "no_dev": ["--parity", "--no-dev", "--window", "20"],
    "parity": ["--parity", "--window", "0", "--dev", "{dev}"],
    "parity_bytes": ["--parity", "--window", "0", "--unit", "bytes", "--dev", "{dev}"],
    "window": ["--parity", "--window", "6", "--alpha", "2", "--dev", "{dev}"],
}


@pytest.fixture(scope="module")
def no_dev_run(corpus):
    config = ParityConfig(
        total_merges=MERGE_BUDGET,
        window_size=20,
        unit=NormUnit.BYTES,
    )
    return train_no_dev(corpus, config)


@pytest.fixture(scope="module")
def parity_bytes_run(corpus, dev):
    config = ParityConfig(total_merges=MERGE_BUDGET, window_size=0, unit=NormUnit.BYTES)
    return train_parity(corpus, dev, config)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_model_and_log_bytes_are_pinned(name, request, tmp_path):
    model, log = request.getfixturevalue(f"{name}_run")
    model.save(tmp_path / "model.bpe")
    log.to_jsonl(tmp_path / "log.jsonl")
    got = (_sha256(tmp_path / "model.bpe"), _sha256(tmp_path / "log.jsonl"))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_writes_the_pinned_bytes(name, synth_dir, tmp_path):
    """CLI ``train`` streams its log record by record, by the rule ``to_jsonl`` writes with."""
    flags = [flag.format(dev=synth_dir / "dev") for flag in CLI_FLAGS[name]]
    assert main(["train", *flags, "--merges", str(MERGE_BUDGET),
                 "--corpus", str(synth_dir / "manifest.json"),
                 "--model-out", str(tmp_path / "m.bpe")]) == 0
    got = (_sha256(tmp_path / "m.bpe"), _sha256(tmp_path / "m.bpe.log.jsonl"))
    assert got == GOLDEN[name]


def test_a_log_writer_takes_the_records(corpus, dev, window_run, tmp_path):
    """Given as ``on_step``, a ``LogWriter`` writes each record and the log keeps none."""
    config = ParityConfig(total_merges=MERGE_BUDGET, window_size=6, alpha=2)
    with open(tmp_path / "log.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        model, log = train_parity(corpus, dev, config, on_step=LogWriter(fh))
    assert _sha256(tmp_path / "log.jsonl") == GOLDEN["window"][1]
    assert log.steps == []
    full_model, full = window_run
    assert model.merges == full_model.merges
    assert (log.stopped_early, log.unit_totals, log.token_totals) == (
        full.stopped_early, full.unit_totals, full.token_totals)


def test_training_does_not_depend_on_the_hash_seed(synth_dir, tmp_path):
    """A parity run under two ``PYTHONHASHSEED`` values writes the same bytes."""
    src = str(Path(parity_bpe.__file__).parents[1])
    written = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        argv = ["train", "--parity", "--window", "100", "--alpha", "2", "--merges", "300",
                "--corpus", synth_dir / "manifest.json", "--dev", synth_dir / "dev",
                "--model-out", out / "m.bpe"]
        subprocess.run([sys.executable, "-m", "parity_bpe.cli", *map(str, argv)],
                       env=env, check=True, capture_output=True)
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["m.bpe", "m.bpe.log.jsonl", "m.bpe.meta.json"]
    assert written[0]["m.bpe.log.jsonl"].count(b"\n") == 300
    assert written[0] == written[1]


# What the golden classical and parity models report and encode on the fixture
# dev set: sha256 of each output, taken before ``full_report`` pre-tokenized
# each line once and before ``TokenizerModel.load`` parsed each text once.
# report -> ``full_report(...).to_json()`` with the provenance below;
# eval_csv -> ``eval --csv``; ids, tokens -> ``encode --format`` of the dev lines.
GOLDEN_OUTPUTS = {
    "classical": {
        "report": "09493c91f7a3efc7df8744217faf6680d9daec42dbbb29902fcba986357aa858",
        "eval_csv": "b1112407614ad7b9e6020a06000c09f3c02d1dfd2871ee42863916b34bf94d15",
        "ids": "dfee8e6813d0f8c031b8aabf56d2421fedcbf569dba6c4f97b13809b35124b73",
        "tokens": "021986f2a142e5bc6da5be845117fc4d1c642462d9ff3775a1c3d2061b88bdac",
    },
    "parity": {
        "report": "47854d3aa159310ffd29b0b5d917b3c3accbae1310064883cd1e98f51a8598a4",
        "eval_csv": "7fdc8611c13915b904bc8ab005cd12445c4fb539c8792b6dd2efd980b8b45e21",
        "ids": "e5dad62bb28cb039e86a4bedf8bda457e5f4d35ecca28afd6e7a238c3b4911dd",
        "tokens": "aa136564239d2ce9c33d5074c164714c946bcd7498be94029847a6518cc24251",
    },
}
# ``compare classical.bpe parity.bpe``: its stdout and its ``--csv``
GOLDEN_COMPARE = {
    "stdout": "e74be3b1025298c3019b1c7d1a7a350623102cffb56b0b1315d2458a8600c17c",
    "csv": "011b95da10f531ff9f8f080bc7cc4e5f549a7b0968da08fd9237b40b27c698f3",
}
PROVENANCE = {"model": "golden"}


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_models(classical_run, parity_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_models")
    for name, (model, _) in (("classical", classical_run), ("parity", parity_run)):
        model.save(out / f"{name}.bpe")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_report_and_encode_bytes_are_pinned(name, dev, synth_dir, golden_models, tmp_path):
    model_path = golden_models / f"{name}.bpe"
    model = parity_bpe.TokenizerModel.load(model_path)
    dev_dir = synth_dir / "dev"
    got = {"report": _sha256_bytes(
        parity_bpe.full_report(model, dev, provenance=PROVENANCE).to_json().encode())}
    assert main(["eval", "--model", str(model_path), "--dev", str(dev_dir),
                 "--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "e.csv")]) == 0
    got["eval_csv"] = _sha256(tmp_path / "e.csv")
    lines = tmp_path / "dev.txt"
    lines.write_bytes(b"".join((dev_dir / f"{lang}.txt").read_bytes() for lang in dev.languages))
    for fmt in ("ids", "tokens"):
        assert main(["encode", "--model", str(model_path), "--format", fmt,
                     "--input", str(lines), "--output", str(tmp_path / fmt)]) == 0
        got[fmt] = _sha256(tmp_path / fmt)
    assert got == GOLDEN_OUTPUTS[name]


def test_compare_bytes_are_pinned(synth_dir, golden_models, tmp_path, capsys):
    assert main(["compare", str(golden_models / "classical.bpe"),
                 str(golden_models / "parity.bpe"), "--dev", str(synth_dir / "dev"),
                 "--csv", str(tmp_path / "c.csv")]) == 0
    got = {"stdout": _sha256_bytes(capsys.readouterr().out.encode()),
           "csv": _sha256(tmp_path / "c.csv")}
    assert got == GOLDEN_COMPARE
