"""Pin BLAS and OpenMP to one thread for the test run.

numpy's BLAS reads these variables only when numpy is first imported, so
the pins are set here, before any test module loads numpy; a value the
caller already set wins.  On a 2-core host an unpinned OpenBLAS makes the
sweep tests several times slower, and a pin set after numpy has loaded
would be ignored without a word, so that case fails loudly.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "the BLAS threads; the pins would have no effect")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
