"""Set-up probe: everything a sweep does before its first trial can start.

    python3 benchmarks/setup_probe.py <workload>

Imports numpy and invexreg, loads the workload's config and builds its
cells, then prints "ready".  run.py times it from process start to that
line, with the same thread pins in the environment.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, experiment  # noqa: E402

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    experiment(ROOT, wl, ROOT / ".bench_out" / "unused").cells()
    print("ready", flush=True)
