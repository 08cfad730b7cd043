"""Property: whatever argv, ``--config`` JSON, paths and stdin the CLI gets,
it exits 0, 1 or 2 without a traceback, and every model file it leaves loads
and re-saves byte-identical.

Runs in-process through ``main()`` and starts no process.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parity_bpe import TokenizerModel
from parity_bpe.cli import main
from parity_bpe.errors import DataError


def _paths(*valid: str, devnull: bool = True):
    """An existing file, a directory, a missing directory, "-" (stdin or
    stdout, or a file named "-"), ``/dev/null`` and the ``valid`` paths."""
    kinds = ["{file}", "{dir}", "{missing}/x", "-"] + (["/dev/null"] if devnull else [])
    if not valid:
        return st.sampled_from(kinds)
    return st.one_of(st.sampled_from(valid), st.sampled_from(kinds))  # valid half the time


_MERGES = st.integers(-1, 10).map(str)
_FORMAT = st.sampled_from(["tokens", "ids"])
_RENYI = st.sampled_from(["2.5", "0", "nan", "inf"])
_LANGS = st.sampled_from(["aa", "aa,zz", "", "aa,bb,cc"])
# the modes that need no --dev most often
_TRAIN_MODES = st.sampled_from(
    [["--classical"], ["--parity", "--no-dev"]] * 3
    + [[], ["--parity"], ["--classical", "--parity"]]
)
# Flag -> strategy of its value. A model written to /dev/null would put its
# log and meta beside it in /dev, so --model-out draws no /dev/null.
COMMANDS = {
    "train": {
        "--corpus": _paths("{corpus}/manifest.json"),
        "--merges": _MERGES,
        "--dev": _paths("{corpus}/dev"),
        "--unit": st.sampled_from(["bytes", "chars", "words", "lines"]),
        "--window": st.sampled_from(["0", "3", "-1"]),
        "--alpha": st.sampled_from(["2", "0", "nan"]),
        "--hybrid-split": st.sampled_from(["0", "0.5", "1", "2"]),
        "--limit-per-language": st.sampled_from(["1", "0", "-1"]),
        "--model-out": _paths(devnull=False),
        "--log-out": _paths(),
        "--config": _paths(),
    },
    "encode": {
        "--model": _paths("{model}"),
        "--input": _paths("{corpus}/dev/aa.txt"),
        "--output": _paths(),
        "--format": _FORMAT,
    },
    "decode": {
        "--model": _paths("{model}"),
        "--input": _paths("{encoded}"),
        "--output": _paths(),
        "--format": _FORMAT,
    },
    "eval": {
        "--model": _paths("{model}"),
        "--dev": _paths("{corpus}/dev"),
        "--langs": _LANGS,
        "--out": _paths(),
        "--csv": _paths(),
        "--gold": _paths(),
        "--renyi-alpha": _RENYI,
        "--config": _paths(),
    },
    "compare": {
        "--dev": _paths("{corpus}/dev"),
        "--langs": _LANGS,
        "--csv": _paths(),
        "--renyi-alpha": _RENYI,
    },
    "synth": {
        "--out": _paths(),
        "--langs": _LANGS,
        "--proportions": st.sampled_from(["1", "0.5,0.5", "0.2,0.3,0.5", "x"]),
        "--dev-lines": st.sampled_from(["0", "3", "-1"]),
        "--vocab-size": st.sampled_from(["1", "20"]),
        "--seed": st.sampled_from(["0", "1"]),
        "--config": _paths(),
    },
}


# A --config value: a flag's own argv value, or any JSON value. Strings hold
# no "/", so a path they name stays in the run's directory, and no braces,
# which argv.format would read.
_JSON_SCALARS = st.one_of(
    st.text(st.characters(exclude_characters="/{}", exclude_categories=()), max_size=6),
    st.integers(),
    st.sampled_from([10**399, -(10**399)]),  # 400 digits: too large for a float
    st.floats(),
    st.just(math.nan),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))
# Switches the modes above draw into argv, which a config may also set.
_SWITCHES = {"train": ["--classical", "--parity", "--no-dev"], "eval": []}


# the flags a run needs; drawn nine times in ten, the others one time in four
_NEEDED = {"train": {"--corpus", "--merges"}, "encode": {"--model"}, "decode": {"--model"},
           "eval": {"--model", "--dev"}, "compare": {"--dev"}, "synth": {"--out"}}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    argv = [command]
    if command == "train":
        argv += draw(_TRAIN_MODES)
    if command == "compare":
        argv += draw(st.lists(_paths("{model}"), min_size=1, max_size=3))
    if command == "synth":  # the default 600 KB corpus is too slow to draw often
        argv += ["--train-bytes", draw(st.sampled_from(["3000", "0"]))]
    # With a --config file, each drawn flag goes into argv or into the file
    # (a dashed or underscored key), with its argv value or any JSON value.
    with_config = command in _SWITCHES and draw(st.booleans())
    config = {}
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) if flag in _NEEDED[command] else not draw(st.integers(0, 3)):
            if with_config and draw(st.booleans()):
                key = flag[2:] if draw(st.booleans()) else flag[2:].replace("-", "_")
                config[key] = draw(st.one_of(flags[flag], _JSON_VALUES))
            else:
                argv += [flag, draw(flags[flag])]
    if with_config:
        for switch in _SWITCHES[command]:
            if not draw(st.integers(0, 3)):
                config[switch[2:].replace("-", "_")] = draw(st.one_of(st.booleans(), _JSON_VALUES))
        argv += ["--config", "{config}"]  # last, so argparse reads this one
    return argv, config


@pytest.fixture(scope="module")
def fixtures(small_synth_dir, tmp_path_factory):
    """A trained model and a token file that decodes with it."""
    out = tmp_path_factory.mktemp("exit_codes")
    model = out / "m.bpe"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--classical", "--merges", "10", "--model-out", str(model),
                     "--corpus", str(small_synth_dir / "manifest.json")]) == 0
    encoded = out / "aa.tokens"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["encode", "--model", str(model), "--output", str(encoded),
                     "--input", str(small_synth_dir / "dev" / "aa.txt")]) == 0
    return {"corpus": small_synth_dir, "model": model, "encoded": encoded}


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv_config=_argv(), stdin=st.binary(max_size=200))
def test_exit_code_and_no_traceback(fixtures, argv_config, stdin):
    argv, config = argv_config
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "afile").write_bytes(b"babab\n")
        (root / "adir").mkdir()
        paths = {**fixtures, "file": root / "afile", "dir": root / "adir",
                 "missing": root / "missing", "config": root / "config.json"}
        argv = [arg.format(**paths) for arg in argv]
        config = {
            key: value.format(**paths) if isinstance(value, str) else value
            for key, value in config.items()
        }
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # "-" as a file name lands here
        try:
            with (
                mock.patch.object(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(stdin))),
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(stderr),
            ):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()

        for path in [p for p in root.rglob("*") if p.is_file()]:
            try:
                model = TokenizerModel.load(path)
            except DataError:
                continue
            resaved = root / "resaved.bpe"
            model.save(resaved)
            assert resaved.read_bytes() == path.read_bytes(), path
