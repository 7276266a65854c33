import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invexreg import bench, cli
from invexreg.bench import (ExperimentConfig, RESULT_COLUMNS, certify_at_true_support,
                            clean_count_theory, lambda_from_m, m_from_C, run_sweep)
from invexreg.datagen import GenSpec, generate
from invexreg.model import GroundTruthConfig, load_dataset, save_dataset
from invexreg.solver import SolverConfig, solve_invex


def test_count_rules():
    assert clean_count_theory(50) == 533
    assert m_from_C(1.5, 50) == 484
    assert m_from_C(0.5, 50) == 49
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
])
def test_config_rejects_a_bad_numeric_field_by_name(tmp_path, field, value, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        tiny_cfg(tmp_path, **{field: value})


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
])
def test_cli_sweep_rejects_a_grid_it_cannot_run(tmp_path, capsys, field, value, match):
    """An empty, non-finite or repeated grid would fail after writing
    results.csv, write an empty sweep, or pool two cells' trials; the sweep
    names the field and exits 2 before it writes anything."""
    raw = {"p": 6, "k": 2, "clean_count_rule": 24, "C_values": [0.4], "seeds": [0],
           "methods": ["lasso"], "output_dir": str(tmp_path / "sw"), field: value}
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


def test_run_sweep_outputs_and_determinism(tmp_path):
    cfg_a = tiny_cfg(tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = tiny_cfg(tmp_path, output_dir=str(tmp_path / "b"))
    out_a = run_sweep(cfg_a, workers=2)
    out_b = run_sweep(cfg_b, workers=1)  # different scheduling, same bytes
    res_a = (tmp_path / "a" / "results.csv").read_bytes()
    res_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert res_a == res_b
    agg_a = (tmp_path / "a" / "aggregate.csv").read_bytes()
    agg_b = (tmp_path / "b" / "aggregate.csv").read_bytes()
    assert agg_a == agg_b
    for name in ("mistakes_vs_m.svg", "jaccard_vs_m.svg", "norm_error_vs_m.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
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
    assert all(r["error"] == "ResampleExhausted" for r in out["rows"])


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
    cfg = tiny_cfg(tmp_path, outlier_rule=rule, C_values=(0.4, 0.8))
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
    gt = GroundTruthConfig(p=cfg.p, k=cfg.k, M=cfg.m_budget, sigma_e=cfg.sigma_e)
    return GenSpec(ground_truth=gt, r=cell["r"], n_outliers=cell["n_outliers"],
                   seed=seed, max_resamples=cfg.max_resamples, rho_min=cfg.rho_min)


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


@pytest.mark.parametrize("bad", ["two", "0", "-3", "1.5"])
def test_run_sweep_rejects_bad_invex_threads(tmp_path, monkeypatch, bad):
    monkeypatch.setenv("INVEX_THREADS", bad)
    with pytest.raises(ValueError, match=f"INVEX_THREADS.*{bad}"):
        run_sweep(tiny_cfg(tmp_path))


@pytest.mark.parametrize("bad", [0, -4])
def test_run_sweep_rejects_bad_worker_count(tmp_path, bad):
    cfg = tiny_cfg(tmp_path)
    with pytest.raises(ValueError, match=f"workers.*{bad}"):
        run_sweep(cfg, workers=bad)
    assert not (tmp_path / "out").exists()


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


def test_cli_pipeline(tmp_path):
    ds = str(tmp_path / "ds")
    r = _cli("gen", "--p", "4", "--k", "2", "--r", "4", "--outliers", "4",
             "--seed", "1", "--rho-min", "5", "--max-resamples", "500",
             "--sigma-e", "0.05", "--out", ds)
    assert r.returncode == 0, r.stderr
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


@pytest.mark.parametrize("pick", ["solver", "worst_outlier"])
def test_cli_certify_verdict_is_the_sweep_verdict(tmp_path, pick):
    """`invexreg certify` writes the verdict the sweep's kkt_feasible column
    takes from the same recipe, passing or failing."""
    gt = GroundTruthConfig(p=4, k=2, M=2.2, sigma_e=0.05)
    save_dataset(generate(GenSpec(ground_truth=gt, r=4, n_outliers=4, seed=0,
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


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every name the benchmark's traced run wraps is still a callable where
    it looks it up, so a refactor cannot break `--trace 1` unseen."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    assert workloads.TRACE_TARGETS
    for t in workloads.TRACE_TARGETS:
        assert callable(getattr(importlib.import_module(t.module), t.attr, None)), t

