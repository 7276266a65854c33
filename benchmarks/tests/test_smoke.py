"""The benchmark command end to end on the p=6 smoke workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import envinfo

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(tmp_path, trace, section):
    r = bench("--workload", "smoke_p6", "--seed", "3", "--seconds", "0",
              "--trace", trace, "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    saved = json.loads((tmp_path / "smoke_p6" / "result.json").read_text())
    assert saved["env"]["thread_pins"] == envinfo.PINS
    assert saved["probe_seed"] == "1003"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    r = bench("--workload", "fig2_p50", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert r.returncode != 0
    assert "{" not in r.stdout


def test_pins_refused_once_numpy_is_loaded():
    import numpy  # noqa: F401

    with pytest.raises(RuntimeError):
        envinfo.pin_threads()
