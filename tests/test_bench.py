import csv
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from invexreg import bench, cli
from invexreg.bench import (ExperimentConfig, RESULT_COLUMNS, certify_at_true_support,
                            clean_count_theory, lambda_from_m, m_from_C, run_sweep)
from invexreg.datagen import GenSpec, generate
from invexreg.model import CLEAN, OUTLIER, Dataset, load_dataset, save_dataset
from invexreg.solver import SolverConfig, solve_invex


def test_count_rules():
    assert clean_count_theory(50) == 533
    assert m_from_C(1.5, 50) == 484
    assert m_from_C(0.5, 50) == 49
    assert GenSpec(p=50, k=4, r=1, n_outliers=0).M == 1.1 * 4
    lam = lambda_from_m(484, 50, 0.05)
    assert abs(lam - 0.05 * np.sqrt(484 * np.log(50))) <= 1e-12


def tiny_cfg(tmp_path, **kw):
    base = dict(p=6, k=2, clean_count_rule=24, outlier_rule="half",
                C_values=(0.4, 0.8), c_lambda=0.1, methods=("invex", "lasso"),
                seeds=(0, 1), sigma_e=0.1, output_dir=str(tmp_path / "out"),
                max_resamples=500)
    base.update(kw)
    return ExperimentConfig(**base)


def test_cells_m_sweep(tmp_path):
    cfg = tiny_cfg(tmp_path)
    cells = cfg.cells()
    assert len(cells) == 2
    assert all(c["r"] == 24 and c["n_outliers"] == 12 for c in cells)
    assert cells[0]["xlabel"] == "m"


def test_cells_proportion_sweep(tmp_path):
    cfg = tiny_cfg(tmp_path, outlier_rule=(0.2, 0.4), C_values=(0.8,))
    cells = cfg.cells()
    assert len(cells) == 2
    assert cells[0]["x"] == 0.2
    # proportion of total sample count is honored up to ceil rounding
    n0 = cells[0]["n_outliers"]
    assert n0 == int(np.ceil(0.2 / 0.8 * 24))


def test_cells_reject_m_above_r(tmp_path):
    cfg = tiny_cfg(tmp_path, C_values=(2.0,))
    with pytest.raises(ValueError):
        cfg.cells()


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_cfg(tmp_path, seeds=())
    with pytest.raises(ValueError):
        tiny_cfg(tmp_path, methods=("nope",))
    with pytest.raises(ValueError):
        tiny_cfg(tmp_path, outlier_rule=(1.5,))


@pytest.mark.parametrize("field, value, match", [
    ("p", 6.0, "p must be an integer >= 2, got 6.0"),
    ("p", 1, "p must be an integer >= 2, got 1"),
    ("k", 2.0, "k must be an integer >= 1, got 2.0"),
    ("k", True, "k must be an integer >= 1, got True"),
    ("max_resamples", 500.0, "max_resamples must be an integer >= 0, got 500.0"),
    ("max_resamples", -1, "max_resamples must be an integer >= 0, got -1"),
    ("c_lambda", -0.1, "c_lambda must be finite and >= 0, got -0.1"),
    ("c_lambda", "0.05", "c_lambda must be finite and >= 0, got '0.05'"),
    ("c_lambda", True, "c_lambda must be finite and >= 0, got True"),
    ("sigma_e", math.nan, "sigma_e must be finite and >= 0, got nan"),
    ("rho_min", math.inf, "rho_min must be finite and >= 0, got inf"),
    ("seeds", (0.5, 1.9), "seeds must be an integer >= 0, got 0.5"),
    ("seeds", (True, 2), "seeds must be an integer >= 0, got True"),
    ("seeds", (0, -1), "seeds must be an integer >= 0, got -1"),
    ("clean_count_rule", 24.7, "clean_count_rule must be an integer >= 1, got 24.7"),
    ("clean_count_rule", True, "clean_count_rule must be an integer >= 1, got True"),
    ("clean_count_rule", 0, "clean_count_rule must be an integer >= 1, got 0"),
    ("clean_count_rule", "24", "clean_count_rule must be an integer >= 1, got '24'"),
    ("c_lambda", 0.0, "c_lambda must be > 0, got 0.0"),
    # a proportions grid runs one m, and tiny_cfg has two C values
    ("outlier_rule", (0.2, 0.3), "C_values: a proportions grid takes one C value, got [0.4, 0.8]"),
])
def test_config_rejects_a_bad_numeric_field_by_name(tmp_path, field, value, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        tiny_cfg(tmp_path, **{field: value}).cells()


@pytest.mark.parametrize("outlier_rule", ["half", (0.2, 0.3)])
@pytest.mark.parametrize("C, m", [(1.5, 102), (400.0, math.inf)])
def test_cells_name_a_C_value_whose_m_exceeds_r(tmp_path, outlier_rule, C, m):
    """Under either outlier rule, a C whose selection budget exceeds r, or
    whose 10**C overflows a float, is a ValueError naming C_values and C."""
    cfg = tiny_cfg(tmp_path, outlier_rule=outlier_rule, C_values=(0.4, C))
    with pytest.raises(ValueError, match=re.escape(f"C_values: C={C} gives m={m} > r=24")):
        cfg.cells()


def test_cli_sweep_rejects_a_float_count(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 6, "k": 2, "clean_count_rule": 24,
                               "C_values": [0.4], "seeds": [0], "methods": ["lasso"],
                               "max_resamples": 500.0,
                               "output_dir": str(tmp_path / "sw")}))
    r = _cli("sweep", "--config", str(cfg), "--workers", "1")
    assert r.returncode == 2
    assert "max_resamples must be an integer >= 0, got 500.0" in r.stderr
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("field, value, match", [
    ("C_values", [], "C_values must not be empty"),
    ("C_values", [math.nan], "C_values must be finite, got (nan,)"),
    ("C_values", [math.inf], "C_values must be finite, got (inf,)"),
    ("C_values", [0.4, 0.4], "C_values must not repeat a value, got [0.4, 0.4]"),
    # both give m = 9 at p = 6
    ("C_values", [0.40, 0.41], "C_values must not give two cells the same (m, n_outliers)"),
    ("outlier_rule", "third", 'outlier_rule must be "half" or proportions, got \'third\''),
    ("outlier_rule", [], "outlier_rule must not be empty"),
    ("outlier_rule", [0.2, 0.2], "outlier_rule must not repeat a value"),
    # both give 6 outliers at r = 24
    ("outlier_rule", [0.18, 0.19], "outlier_rule must not give two cells the same"),
    ("methods", [], "methods must not be empty"),
    ("methods", ["lasso", "lasso"], "methods must not repeat a value"),
    ("seeds", [], "seeds must not be empty"),
    ("seeds", [0, 0], "seeds must not repeat a value"),
    ("C_values", [400.0], "C_values: C=400.0 gives m=inf > r=24"),
    # a config that is not a JSON object (field None: the value is the whole file)
    (None, [1, 2], "config must be a JSON object, got list"),
    (None, "abc", "config must be a JSON object, got str"),
    (None, 3, "config must be a JSON object, got int"),
    (None, None, "config must be a JSON object, got NoneType"),
    # at lambda = 0 every invex trial would record an error
    ("c_lambda", 0, "c_lambda must be > 0, got 0"),
    # a dict value sets several fields: a proportions grid runs one m
    ("C_values", {"outlier_rule": [0.2, 0.3], "C_values": [0.4, 0.8]},
     "C_values: a proportions grid takes one C value, got [0.4, 0.8]"),
    # a scalar or a string where a list goes is named, not iterated
    ("seeds", 3, "seeds must be a list, got 3"),
    ("C_values", 1.5, "C_values must be a list, got 1.5"),
    ("outlier_rule", 0.3, 'outlier_rule must be "half" or proportions, got 0.3'),
    ("methods", "invex", "methods must be a list, got 'invex'"),
])
def test_cli_sweep_rejects_a_grid_it_cannot_run(tmp_path, capsys, field, value, match):
    """An empty, non-finite or repeated grid would fail after writing
    results.csv, write an empty sweep, or pool two cells' trials; the sweep
    names the field and exits 2 before it writes anything."""
    raw = value if field is None else {
        "p": 6, "k": 2, "clean_count_rule": 24, "C_values": [0.4], "seeds": [0],
        "methods": ["lasso"], "output_dir": str(tmp_path / "sw"),
        **(value if isinstance(value, dict) else {field: value})}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(tmp_path / "cfg.json"), "--workers", "1"]) == 2
    assert f"error: ValueError: {match}" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 6, "k": 2, "clean_count_rule": 24,
                                "C_values": [0.4], "seeds": [0],
                                "methods": ["invex"],
                                "output_dir": str(tmp_path / "o")}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.p == 6 and cfg.seeds == (0,) and cfg.methods == ("invex",)
    path.write_text(json.dumps({"p": 6, "bogus_key": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(path)
    # the sweep's solver budget, L1 budget and alpha1 are not settable
    for key, value in (("M", 4.4), ("alpha1", 1.0), ("tol_obj", 1e-6),
                       ("max_outer", 150.0)):
        path.write_text(json.dumps({"p": 6, key: value}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            ExperimentConfig.from_json(path)


def legend_labels(svg_path) -> list[str]:
    """The series labels of a plot's legend, in drawing order (the axis tick
    labels carry a text-anchor, the legend's do not)."""
    return re.findall(r'<text x="[^"]*" y="[^"]*" font-family="sans-serif" '
                      r'font-size="12">([^<]*)</text>', svg_path.read_text())


def test_run_sweep_outputs_and_determinism(tmp_path):
    cfg_a = tiny_cfg(tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = tiny_cfg(tmp_path, output_dir=str(tmp_path / "b"))
    out_a = run_sweep(cfg_a, workers=np.int64(2))  # a numpy integer is a count too
    out_b = run_sweep(cfg_b, workers=1)  # different scheduling, same bytes
    res_a = (tmp_path / "a" / "results.csv").read_bytes()
    res_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert res_a == res_b
    agg_a = (tmp_path / "a" / "aggregate.csv").read_bytes()
    agg_b = (tmp_path / "b" / "aggregate.csv").read_bytes()
    assert agg_a == agg_b
    for name in ("mistakes_vs_m.svg", "jaccard_vs_m.svg", "norm_error_vs_m.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name in ("jaccard_vs_m.svg", "norm_error_vs_m.svg"):
        assert legend_labels(tmp_path / "a" / name) == ["invex", "lasso"]
    # schema and content sanity
    header = res_a.decode().splitlines()[0].split(",")
    assert header == RESULT_COLUMNS
    rows = out_a["rows"]
    assert len(rows) == 2 * 2 * 2  # cells x seeds x methods
    assert all(not r["error"] for r in rows)
    inv = [r for r in rows if r["method"] == "invex"]
    assert all(r["mistakes_frac"] is not None for r in inv)
    las = [r for r in rows if r["method"] == "lasso"]
    assert all(r["mistakes_frac"] is None for r in las)
    assert all(r["jaccard"] is not None for r in rows)
    # timings recorded separately from the reproducible results
    assert (tmp_path / "a" / "timings.csv").exists()


SWEEP_META = """{
  "c_lambda_note": "calibrated constant; the theory-scale constant is far too conservative in practice",
  "config": {
    "C_values": [
      0.4
    ],
    "c_lambda": 0.1,
    "clean_count_rule": 24,
    "k": 2,
    "max_resamples": 500,
    "methods": [
      "lasso"
    ],
    "outlier_rule": [
      0.2
    ],
    "output_dir": "sw",
    "p": 6,
    "rho_min": 0.0,
    "seeds": [
      0
    ],
    "sigma_e": 0.1
  }
}
"""

SIDECAR = """{
  "M": 1.1,
  "k": 1,
  "n": 2,
  "p": 1,
  "r": 1,
  "rho": 6.1875,
  "seed": 7,
  "sigma_e": 0.0,
  "theta_star": [
    0.25
  ]
}
"""


def test_sweep_meta_and_sidecar_keep_their_bytes(tmp_path, monkeypatch):
    """`sweep_meta.json` and a dataset's JSON sidecar, both written by the
    one JSON writer `model._write_json`, hold the bytes pinned above,
    recorded when each file had its own `json.dump`.  The sidecar's rho is
    the gap the example's arrays give, (3 - 0.5)^2 - (0.5 - 0.25)^2."""
    monkeypatch.chdir(tmp_path)
    run_sweep(tiny_cfg(tmp_path, outlier_rule=(0.2,), C_values=(0.4,), methods=("lasso",),
                       seeds=(0,), output_dir="sw"), workers=1)
    assert (tmp_path / "sw" / "sweep_meta.json").read_text() == SWEEP_META
    data = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([0.5, 3.0]),
                   labels=np.array([CLEAN, OUTLIER]), theta_star=np.array([0.25]),
                   meta={"p": 1, "k": 1, "M": 1.1, "sigma_e": 0.0, "seed": 7})
    _, sidecar = save_dataset(data, tmp_path / "ds")
    assert sidecar.read_text() == SIDECAR


def test_run_sweep_baselines_deterministic_across_workers(tmp_path):
    """The baselines' warm-started lasso solves give the same bytes whether
    the trials run in-process or on a pool, at a size where every method
    runs many lasso solves."""
    kw = dict(p=20, k=3, clean_count_rule=100, C_values=(0.6, 1.0),
              methods=("lasso", "adahuber", "trimmed"), seeds=(0, 1))
    run_sweep(tiny_cfg(tmp_path, output_dir=str(tmp_path / "a"), **kw), workers=1)
    out = run_sweep(tiny_cfg(tmp_path, output_dir=str(tmp_path / "b"), **kw), workers=2)
    assert len(out["rows"]) == 2 * 2 * 3
    assert all(not r["error"] for r in out["rows"])
    for name in ("results.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name in ("jaccard_vs_m.svg", "norm_error_vs_m.svg"):
        assert legend_labels(tmp_path / "b" / name) == ["lasso", "adahuber-proxy",
                                                        "trimmed-proxy"]


def test_run_sweep_invex_deterministic_across_workers(tmp_path):
    """Invex trials give the same bytes in-process and on a pool."""
    kw = dict(p=20, k=3, clean_count_rule=100, C_values=(0.6, 1.0),
              methods=("invex", "lasso"), seeds=(0, 1))
    run_sweep(tiny_cfg(tmp_path, output_dir=str(tmp_path / "a"), **kw), workers=1)
    out = run_sweep(tiny_cfg(tmp_path, output_dir=str(tmp_path / "b"), **kw), workers=2)
    assert len(out["rows"]) == 2 * 2 * 2
    assert all(not r["error"] for r in out["rows"])
    for name in ("results.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_sweep_records_cell_failures(tmp_path):
    # impossible margin makes generation fail; the row carries the error tag
    cfg = tiny_cfg(tmp_path, rho_min=1e9, max_resamples=2,
                   output_dir=str(tmp_path / "fail"))
    out = run_sweep(cfg, workers=1)
    for row in out["rows"]:
        assert row["error"].startswith("ResampleExhausted: ")
        assert "violate the loss-gap margin" in row["error"]


@pytest.fixture
def generate_calls(monkeypatch):
    """Count the generations `bench` makes; leave its dataset memo empty."""
    calls = []

    def counting(spec):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr(bench, "generate", counting)
    bench._dataset.cache_clear()
    yield calls
    bench._dataset.cache_clear()


@pytest.mark.parametrize("rule, expected", [
    ("half", 2),           # one dataset per seed, shared by both cells
    ((0.2, 0.3), 4),       # one per (proportion, seed)
])
def test_run_sweep_generates_each_dataset_once(tmp_path, generate_calls, rule, expected):
    cfg = tiny_cfg(tmp_path, outlier_rule=rule,
                   C_values=(0.4, 0.8) if rule == "half" else (0.8,))
    assert len(cfg.cells()) * len(cfg.seeds) * len(cfg.methods) == 8
    run_sweep(cfg, workers=1)
    assert len(generate_calls) == expected
    assert bench._dataset.cache_info().currsize == 0
    run_sweep(cfg, workers=1)   # the next sweep pays its own generation
    assert len(generate_calls) == 2 * expected
    assert bench._dataset.cache_info().currsize == 0


def test_run_sweep_retries_a_failed_generation(tmp_path, generate_calls):
    cfg = tiny_cfg(tmp_path, rho_min=1e9, max_resamples=2)
    out = run_sweep(cfg, workers=1)
    assert len(generate_calls) == len(out["rows"]) == 8


def _spec(cfg, cell, seed):
    return GenSpec(p=cfg.p, k=cfg.k, r=cell["r"], n_outliers=cell["n_outliers"],
                   seed=seed, sigma_e=cfg.sigma_e, max_resamples=cfg.max_resamples,
                   rho_min=cfg.rho_min)


@pytest.mark.parametrize("field, value", [("sigma_e", 0.3), ("rho_min", 1.0), ("k", 3)])
def test_run_trial_dataset_follows_every_generation_field(tmp_path, generate_calls,
                                                         field, value):
    """Two configs that differ in one generation field, trialled back to
    back, each get the dataset `generate` gives for their own spec."""
    cfgs = [tiny_cfg(tmp_path), tiny_cfg(tmp_path, **{field: value})]
    cell = cfgs[0].cells()[0]
    datasets = []
    for cfg in cfgs:
        row, _ = bench.run_trial(cfg, cell, 0, "lasso")
        assert not row["error"]
        data = bench._dataset(cfg, cell["r"], cell["n_outliers"], 0)
        fresh = generate(_spec(cfg, cell, 0))
        for name in ("X", "y", "labels", "theta_star"):
            assert np.array_equal(getattr(data, name), getattr(fresh, name)), name
        assert data.rho == fresh.rho
        datasets.append(data)
    assert len(generate_calls) == 2
    assert not (np.array_equal(datasets[0].X, datasets[1].X)
                and np.array_equal(datasets[0].y, datasets[1].y)
                and np.array_equal(datasets[0].theta_star, datasets[1].theta_star))


def test_memoized_dataset_is_read_only(tmp_path, generate_calls):
    cfg = tiny_cfg(tmp_path)
    cell = cfg.cells()[0]
    data = bench._dataset(cfg, cell["r"], cell["n_outliers"], 0)
    assert bench._dataset(cfg, cell["r"], cell["n_outliers"], 0) is data
    for arr in (data.X, data.y, data.labels, data.theta_star):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]


@pytest.mark.parametrize("bad", [0, -4, 2.5, True, "2"])
def test_run_sweep_rejects_bad_worker_count(tmp_path, bad):
    cfg = tiny_cfg(tmp_path)
    msg = f"workers must be a positive integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        run_sweep(cfg, workers=bad)
    assert not (tmp_path / "out").exists()


def test_run_sweep_default_workers_follow_cpu_affinity(tmp_path, monkeypatch):
    """Pinned to one CPU, a sweep with no worker count runs in-process
    rather than starting a pool of os.cpu_count() workers."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = run_sweep(tiny_cfg(tmp_path), workers=None)
    assert len(out["rows"]) == 2 * 2 * 2
    assert all(not r["error"] for r in out["rows"])


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "invexreg.cli", *args],
                          capture_output=True, text=True)


def test_cli_usage_and_errors(tmp_path):
    r = _cli("solve", "--help")
    assert r.returncode == 0 and "usage" in r.stdout
    r = _cli("solve")  # missing required args
    assert r.returncode == 1
    # runtime error path: combinatorial blowup
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "6", "--outliers", "4",
             "--seed", "0", "--out", str(tmp_path / "ds"))
    assert r.returncode == 0, r.stderr
    r = _cli("oracle", "--data", str(tmp_path / "ds"), "--m", "5",
             "--lam", "1.0", "--cap", "3", "--out", str(tmp_path / "o.json"))
    assert r.returncode == 2
    assert "CombinatorialBlowup" in r.stderr
    # the oracle writes no per-subset table
    r = _cli("oracle", "--data", str(tmp_path / "ds"), "--m", "5", "--lam", "1.0",
             "--table", "--out", str(tmp_path / "o.json"))
    assert r.returncode == 1
    assert "unrecognized arguments: --table" in r.stderr
    # a bad SolverConfig field is a runtime error that names the field, with
    # or without --lam (without it, lam is derived from m)
    for lam_args in ((), ("--lam", "1.0")):
        r = _cli("solve", "--data", str(tmp_path / "ds"), "--m", "-3", *lam_args,
                 "--out", str(tmp_path / "s.json"))
        assert r.returncode == 2
        assert "m must be an integer >= 1, got -3" in r.stderr
    # the V step's step size is not settable
    for flag in (("--step-rule", "fixed"), ("--eta", "0.001")):
        r = _cli("solve", "--data", str(tmp_path / "ds"), "--m", "4", *flag,
                 "--out", str(tmp_path / "s.json"))
        assert r.returncode == 1
        assert "unrecognized arguments" in r.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 6, "k": 2, "clean_count_rule": 24,
                               "C_values": [0.4], "seeds": [0],
                               "methods": ["lasso"],
                               "output_dir": str(tmp_path / "sw")}))
    r = _cli("sweep", "--config", str(cfg), "--workers", "-4")
    assert r.returncode == 2
    assert "workers must be a positive integer, got -4" in r.stderr


def test_cli_solve_without_lam_uses_the_sweeps_lambda(tmp_path):
    """Without --lam, solve takes the lambda a sweep gives the same m, and
    its constant is not a flag."""
    ds = str(tmp_path / "ds")
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "6", "--outliers", "4", "--out", ds)
    assert r.returncode == 0, r.stderr
    r = _cli("solve", "--data", ds, "--m", "5", "--c-lambda", "0.1",
             "--out", str(tmp_path / "flag.json"))
    assert r.returncode == 1 and "unrecognized arguments: --c-lambda" in r.stderr
    r = _cli("solve", "--data", ds, "--m", "5", "--out", str(tmp_path / "res.json"))
    assert r.returncode == 0, r.stderr
    lam = json.loads((tmp_path / "res.json").read_text())["config"]["lam"]
    assert lam == lambda_from_m(5, 4, ExperimentConfig().c_lambda)


def test_cli_pipeline(tmp_path):
    ds = str(tmp_path / "ds")
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "4", "--outliers", "4",
             "--seed", "1", "--rho-min", "5", "--max-resamples", "500",
             "--sigma-e", "0.05", "--out", ds)
    assert r.returncode == 0, r.stderr
    # the L1 budget is the generator's rule, GenSpec.M = 1.1 k, not a flag
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "4", "--M", "3",
             "--out", str(tmp_path / "ds_M"))
    assert r.returncode == 1 and "unrecognized arguments: --M" in r.stderr
    r = _cli("solve", "--data", ds, "--m", "4", "--lam", "1.18",
             "--out", str(tmp_path / "res.json"))
    assert r.returncode == 0, r.stderr
    solved = json.loads((tmp_path / "res.json").read_text())
    dual_min_eig = solved["dual_min_eig"]
    assert dual_min_eig >= -1e-9
    assert f"outer={solved['outer_iters']}, dual_min_eig=" in r.stdout
    assert f"dual_min_eig={dual_min_eig:.3g})" in r.stdout
    r = _cli("solve", "--data", ds, "--m", "4", "--max-outer", "5",
             "--out", str(tmp_path / "capped.json"))
    assert r.returncode == 1 and "unrecognized arguments: --max-outer" in r.stderr
    r = _cli("certify", "--data", ds, "--result", str(tmp_path / "res.json"),
             "--out", str(tmp_path / "cert.json"))
    assert r.returncode == 0, r.stderr
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["dual_certificate"]["feasible"] is True
    assert cert["kkt_report"]["second_eig"] > 0
    assert set(cert["strict_dual"]) == {"omega_bar_inf", "pass"}
    assert not {"alpha1", "alpha2"} & set(cert["assumption_report"])
    # the assumption constants are the library defaults, not flags
    for flag in ("--kappa", "--alpha1", "--alpha2"):
        r = _cli("certify", "--data", ds, "--result", str(tmp_path / "res.json"),
                 flag, "0.3", "--out", str(tmp_path / "cert_flag.json"))
        assert r.returncode == 1 and f"unrecognized arguments: {flag}" in r.stderr
    r = _cli("oracle", "--data", ds, "--m", "4", "--lam", "1.18",
             "--out", str(tmp_path / "orc.json"))
    assert r.returncode == 0, r.stderr
    orc = json.loads((tmp_path / "orc.json").read_text())
    res = json.loads((tmp_path / "res.json").read_text())
    sel = [i for i, b in enumerate(res["b_rounded"]) if b == 1]
    assert sel == orc["J_star"]
    assert set(res["config"]) == {"m", "lam"}
    assert not {"vartheta_hat", "b_hat", "rank1_gap"} & set(res)
    # certify reads only b_rounded and config.lam, so a result written when
    # SolverConfig also had step_rule, eta, tol_obj and max_outer, and the
    # result carried the lifted iterate, its weights and its rank-one gap,
    # still certifies, to the same bytes
    res["config"].update(step_rule="backtracking", eta=None, tol_obj=1e-8, max_outer=200)
    res.update(vartheta_hat=np.eye(5).tolist(), b_hat=res["b_rounded"], rank1_gap=0.0)
    (tmp_path / "old.json").write_text(json.dumps(res))
    r = _cli("certify", "--data", ds, "--result", str(tmp_path / "old.json"),
             "--out", str(tmp_path / "cert_old.json"))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cert_old.json").read_bytes() == (tmp_path / "cert.json").read_bytes()


def test_cli_refuses_a_dataset_with_a_nan(tmp_path):
    """A NaN in X is refused when the dataset loads, naming X, even on a row
    that the result does not select."""
    csv_path, _ = save_dataset(generate(GenSpec(p=4, k=2, r=4, n_outliers=4, seed=0,
                                                sigma_e=0.05)), tmp_path / "ds")
    rows = csv_path.read_text().splitlines()
    cells = rows[-1].split(",")   # the last row, which the result does not select
    cells[1] = "nan"
    rows[-1] = ",".join(cells)
    csv_path.write_text("\n".join(rows) + "\n")
    (tmp_path / "res.json").write_text(json.dumps(
        {"b_rounded": [1.0] * 4 + [0.0] * 4, "config": {"lam": 1.18}}))
    for args in (("solve", "--m", "4"), ("certify", "--result", str(tmp_path / "res.json"))):
        r = _cli(*args, "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out.json"))
        assert r.returncode == 2
        assert "ValueError: X must be finite" in r.stderr


@pytest.mark.parametrize("pick", ["solver", "worst_outlier"])
def test_cli_certify_verdict_is_the_sweep_verdict(tmp_path, pick):
    """`invexreg certify` writes the verdict the sweep's kkt_feasible column
    takes from the same recipe, passing or failing."""
    save_dataset(generate(GenSpec(p=4, k=2, r=4, n_outliers=4, seed=0, sigma_e=0.05,
                                  rho_min=5.0, max_resamples=500)), tmp_path / "ds")
    data = load_dataset(tmp_path / "ds")
    lam = 1.18
    if pick == "solver":
        sel = solve_invex(data, SolverConfig(m=4, lam=lam)).b_rounded
    else:  # three clean rows and the worst outlier: the nu-interval is empty
        sel = np.zeros(data.n)
        sel[np.flatnonzero(data.clean_mask)[:3]] = 1.0
        sel[np.argmax((data.y - data.X @ data.theta_star) ** 2)] = 1.0
    (tmp_path / "res.json").write_text(json.dumps(
        {"b_rounded": sel.tolist(), "config": {"lam": lam}}))
    r = _cli("certify", "--data", str(tmp_path / "ds"), "--result",
             str(tmp_path / "res.json"), "--out", str(tmp_path / "cert.json"))
    assert r.returncode == 0, r.stderr
    verdict = json.loads((tmp_path / "cert.json").read_text())["kkt_feasible"]
    assert verdict is certify_at_true_support(data, sel, lam)[-1]
    assert verdict is (pick == "solver")


def _gen_and_solve(tmp_path, lam):
    ds = str(tmp_path / "ds")
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "4", "--outliers", "4", "--seed", "1",
             "--rho-min", "5", "--max-resamples", "500", "--sigma-e", "0.05", "--out", ds)
    assert r.returncode == 0, r.stderr
    r = _cli("solve", "--data", ds, "--m", "4", "--lam", lam,
             "--out", str(tmp_path / "res.json"))
    assert r.returncode == 0, r.stderr
    return ds


def test_cli_certify_records_why_a_zero_lam_has_no_strict_dual(tmp_path):
    """A result solved at lam = 0 still certifies; its strict dual check
    records the reason it cannot run."""
    ds = _gen_and_solve(tmp_path, "0")
    r = _cli("certify", "--data", ds, "--result", str(tmp_path / "res.json"),
             "--out", str(tmp_path / "cert.json"))
    assert r.returncode == 0, r.stderr
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["strict_dual"] == {"error": "lam must be positive"}


def test_cli_certify_needs_theta_star(tmp_path):
    ds = _gen_and_solve(tmp_path, "1.18")
    sidecar = tmp_path / "ds.json"
    meta = json.loads(sidecar.read_text())
    meta["theta_star"] = None
    sidecar.write_text(json.dumps(meta))
    r = _cli("certify", "--data", ds, "--result", str(tmp_path / "res.json"),
             "--out", str(tmp_path / "cert.json"))
    assert r.returncode == 2
    assert "certification needs theta_star in the dataset sidecar" in r.stderr
    assert not (tmp_path / "cert.json").exists()


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every name the benchmark's traced run wraps is still a callable where
    it looks it up, so a refactor cannot break `--trace 1` unseen."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    assert workloads.TRACE_TARGETS
    for t in workloads.TRACE_TARGETS:
        assert callable(getattr(importlib.import_module(t.module), t.attr, None)), t



def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _same_cell(got, pinned):
    """Integers and strings exactly, floats within 1e-12 relative; an empty
    cell is a string."""
    try:
        int(pinned)
        return got == pinned
    except ValueError:
        pass
    try:
        return math.isclose(float(got), float(pinned), rel_tol=1e-12, abs_tol=0.0)
    except ValueError:
        return got == pinned


@pytest.mark.parametrize("config", ["fig2_p50", "fig2_p100", "proportions_p30"])
def test_grid_sweep_matches_its_pin(tmp_path, config):
    """Each configs/ grid, all four methods at one worker, reproduces the
    results.csv pinned in tests/data (recorded at commit d68e64b) row by
    row, as `_same_cell` compares cells.  The only warning a grid may raise
    is adahuber's scale cap."""
    root = Path(__file__).resolve().parent
    cfg = ExperimentConfig.from_json(root.parent / "configs" / f"{config}.json")
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "sweep"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_sweep(cfg, workers=1)
    assert {str(w.message) for w in caught} <= {
        "adaptive Huber lasso: the Huber scale did not settle in 12 rounds; using the last one"}
    want = _read_rows(root / "data" / f"grid_pin_{config}.csv")
    got = _read_rows(out["results_csv"])
    assert got[0] == want[0] and len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        for column, a, b in zip(want[0], row_got, row_want, strict=True):
            assert _same_cell(a, b), (row_want[:7], column, a, b)


def test_grid_datasets_match_their_rho_pin(tmp_path):
    """Every dataset of the configs/ grids, generated as a sweep generates
    it, has the loss gap pinned in tests/data/rho_pin.csv (recorded at
    commit da429fc), within 1e-12 relative.  One dataset per config, saved
    and loaded back, keeps its arrays, r and rho bit for bit."""
    root = Path(__file__).resolve().parent
    rows = _read_rows(root / "data" / "rho_pin.csv")
    assert rows[0] == ["config", "n_outliers", "seed", "rho"]
    pinned = {(c, int(n), int(s)): float(rho) for c, n, s, rho in rows[1:]}
    got = {}
    for config in ("fig2_p50", "fig2_p100", "proportions_p30"):
        cfg = ExperimentConfig.from_json(root.parent / "configs" / f"{config}.json")
        for n_outliers in {c["n_outliers"] for c in cfg.cells()}:
            for seed in cfg.seeds:
                data = bench._dataset(cfg, cfg.r, n_outliers, seed)
                got[config, n_outliers, seed] = data.rho
        save_dataset(data, tmp_path / config)
        back = load_dataset(tmp_path / config)
        for name in ("X", "y", "labels", "theta_star"):
            mine, read = getattr(data, name), getattr(back, name)
            assert np.array_equal(mine, read) and mine.dtype == read.dtype, (config, name)
        assert back.r == data.r == cfg.r and back.rho == data.rho
    assert got.keys() == pinned.keys()
    for key, rho in pinned.items():
        assert math.isclose(got[key], rho, rel_tol=1e-12, abs_tol=0.0), key
