"""End-to-end serving benchmark (see README.md in this directory).

Importing the package pins the BLAS thread pools to one thread (before
NumPy loads, so a bigger host does not change the program under test)
and puts ``<repo>/src`` on ``sys.path`` so ``repro`` resolves from the
checkout the benchmark sits in.
"""

import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def manifest() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are written down."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
