"""Make the benchmark's modules and the package sources importable in its tests."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
