"""The README's Library example runs as written."""

import re
from pathlib import Path

import parity_bpe
from parity_bpe import SyntheticSpec, _kernels, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first Python block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    spec = SyntheticSpec.default(["aa", "bb"], [0.7, 0.3], dev_lines=20, total_train_bytes=30_000)
    generate_synthetic(spec, seed=7, out_dir=tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    gini = float(capsys.readouterr().out)
    assert 0.0 <= gini < 1.0


def test_readme_names_every_public_name():
    """Each name in ``parity_bpe.__all__`` appears in the README as code."""
    text = README.read_text(encoding="utf-8")
    missing = [name for name in parity_bpe.__all__
               if not re.search(rf"`(?:\w+\.)*{re.escape(name)}\b", text)]
    assert missing == []


def test_readme_states_the_long_pretoken_threshold():
    """The README gives the length from which the encoder keeps rank lists."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"{_kernels.LONG_PRETOKEN:,} ids (`_kernels.LONG_PRETOKEN`)" in text
