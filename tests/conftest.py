"""Pin BLAS and OpenMP to one thread for the test run, and put src/ on
the PYTHONPATH that CLI tests hand to their subprocesses.

numpy's BLAS reads these variables only when numpy is first imported, so
the pins are set here, before any test module loads numpy; a value the
caller already set wins.  On a 2-core host an unpinned OpenBLAS makes the
sweep tests several times slower, and a pin set after numpy has loaded
would be ignored without a word, so that case fails loudly.
"""

import os
import sys
from pathlib import Path

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "the BLAS threads; the pins would have no effect")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# pyproject.toml puts src/ on sys.path for this process only; without this,
# `python -m invexreg.cli` fails in a checkout where the package is not installed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
