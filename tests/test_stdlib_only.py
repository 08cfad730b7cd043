"""The package imports nothing outside the standard library, and parses as
the oldest Python that ``pyproject.toml`` declares.

numpy and other third-party modules may be installed next to it, but the
package must run on a bare interpreter.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parity_bpe"


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one: the package itself
            for module in modules:
                top = module.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "parity_bpe":
                    outside.append(f"{path.name}:{node.lineno}: {module}")
    assert outside == []


def test_package_parses_as_the_declared_python_floor():
    """Each module parses with the grammar of ``requires-python``'s floor."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    assert floor is not None
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))
