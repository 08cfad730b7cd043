"""The package imports nothing outside the standard library.

numpy and other third-party modules may be installed next to it, but the
package must run on a bare interpreter.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parity_bpe"


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
