"""Thread pins and the environment record that goes with every result.

Imports nothing that loads numpy: `pin_threads` must run first.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; refuse if numpy is already loaded,
    because its BLAS reads the variables only when it loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    os.environ.update(PINS)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """Digest of the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "commit": _commit(root),
        "source_sha256": source_sha256(root),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_pins": {k: os.environ.get(k) for k in PINS},
    }
