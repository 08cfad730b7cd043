"""End-to-end and per-layer benchmark for parity-bpe.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. The benchmark imports the package from ``src/``
of the same checkout; nothing needs to be installed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
