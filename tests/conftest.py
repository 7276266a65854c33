"""Pin BLAS and OpenMP to one thread for the test run, and put src/ on
the PYTHONPATH that CLI tests hand to their subprocesses, and count the
runs of the L1 solve's completion for the tests that check when it runs.

numpy's BLAS reads these variables only when numpy is first imported, so
the pins are set here, before any test module loads numpy; a value the
caller already set wins.  On a 2-core host an unpinned OpenBLAS makes the
sweep tests several times slower, and a pin set after numpy has loaded
would be ignored without a word, so that case fails loudly.
"""

import os
import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def completion_runs(monkeypatch):
    """One entry per run of the completion, `solver._active_set_solve`: the
    number of `np.linalg.solve` calls made in that run that raised."""
    import numpy as np

    from invexreg import solver

    runs, inside = [], []
    real_run, real_solve = solver._active_set_solve, np.linalg.solve

    def solve(*args, **kwargs):
        try:
            return real_solve(*args, **kwargs)
        except np.linalg.LinAlgError:
            if inside:
                runs[-1] += 1
            raise

    def run(*args, **kwargs):
        runs.append(0)
        inside.append(True)
        try:
            return real_run(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(solver, "_active_set_solve", run)
    return runs
