"""Self-tests of the benchmark; run with ``python3 -m pytest benchmarks/tests``.

They sit outside ``tests/`` so the package's own suite does not collect them.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
