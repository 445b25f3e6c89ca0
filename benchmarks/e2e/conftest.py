"""Let ``python -m pytest benchmarks/e2e`` import ``repro`` from the checkout
when the package is not installed."""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
