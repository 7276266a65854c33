"""Experiment runner: recovery sweeps over the selection budget m or the
outlier proportion, with per-trial CSV rows, aggregated curves and SVG
panels.

Trials are independent (seed x cell x method) and run on a process pool
capped by the INVEX_THREADS environment variable; results are reduced in a
fixed (cell, seed, method) order so output bytes do not depend on
scheduling.  A dataset depends only on the config, the cell's r and
n_outliers and the seed, not on m or the method, so the trials that share
one generate it once per process per sweep.  Wall-clock timings go to a
separate timings.csv because the result files are byte-reproducible; a
trial's wall_ms includes generation only when it is the first in its
process to need that dataset.  `certify_at_true_support` is the one
certificate recipe, for the `kkt_feasible` column and `invexreg certify`.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, adaptive_huber_lasso, lasso, trimmed_lasso
from .certify import build_duals, kkt_residuals
from .datagen import GenSpec, generate
from .metrics import clean_recovery_mistakes, norm_error, support_jaccard, theory_delta_m
from .model import Dataset, GroundTruthConfig, _check_int, _check_nonneg, lift_parameter
from .solver import SolverConfig, refit, solve_invex
from .svgplot import write_line_plot

__all__ = ["ExperimentConfig", "run_sweep", "clean_count_theory", "m_from_C",
           "lambda_from_m", "certify_at_true_support", "RESULT_COLUMNS"]

RESULT_COLUMNS = ["method", "p", "k", "m", "r", "n_outliers", "seed",
                  "mistakes_frac", "jaccard", "norm_error", "delta_m",
                  "kkt_feasible", "error"]

METHODS = ("invex", "lasso", "adahuber", "trimmed")


def clean_count_theory(p: int) -> int:
    """ceil(1.1 * 10^1.5 * ln(p)^2), the clean-sample count rule."""
    return math.ceil(1.1 * 10 ** 1.5 * math.log(p) ** 2)


def m_from_C(C: float, p: int) -> int:
    """ceil(10^C * ln(p)^2), the selection-budget rule."""
    return math.ceil(10 ** C * math.log(p) ** 2)


def lambda_from_m(m: int, p: int, c_lambda: float) -> float:
    """c * sqrt(m * ln p); the constant is calibrated, not the theory one."""
    return c_lambda * math.sqrt(m * math.log(p))


@dataclass(frozen=True)
class ExperimentConfig:
    """p >= 2, k >= 1, max_resamples >= 0 and each seed >= 0 are integers,
    clean_count_rule is "theory" or an integer >= 1, outlier_rule is
    "half" or proportions in (0, 1), c_lambda, sigma_e and rho_min are
    finite reals >= 0, the C values are finite, and seeds, methods,
    C_values and the proportions are non-empty with no repeats, or
    ValueError names the field.  `cells` also rejects a C value whose m
    exceeds r, and two cells with the same m and outlier count, whose
    trials `_aggregate` would pool."""

    p: int = 50
    k: int = 4
    clean_count_rule: str | int = "theory"   # "theory" or explicit r
    outlier_rule: str | tuple = "half"       # "half" or proportions of n
    C_values: tuple = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
    c_lambda: float = 0.05
    methods: tuple = METHODS
    seeds: tuple = (0, 1, 2, 3, 4)
    sigma_e: float = 0.1
    rho_min: float = 0.0
    max_resamples: int = 200
    output_dir: str = "sweep_out"

    def __post_init__(self):
        for name, low in (("p", 2), ("k", 1), ("max_resamples", 0)):
            _check_int(name, getattr(self, name), low)
        for name in ("c_lambda", "sigma_e", "rho_min"):
            _check_nonneg(name, getattr(self, name))
        for seed in self.seeds:
            _check_int("seeds", seed, 0)
        if self.clean_count_rule != "theory":
            _check_int("clean_count_rule", self.clean_count_rule, 1)
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.outlier_rule != "half":
            if isinstance(self.outlier_rule, str):
                raise ValueError(f'outlier_rule must be "half" or proportions, '
                                 f'got {self.outlier_rule!r}')
            props = tuple(float(x) for x in self.outlier_rule)
            if any(not (0 < x < 1) for x in props):
                raise ValueError(f"outlier_rule proportions must be in (0, 1), got {props!r}")
            _check_listed("outlier_rule", props)
            object.__setattr__(self, "outlier_rule", props)
        C_values = tuple(float(c) for c in self.C_values)
        if not all(map(math.isfinite, C_values)):
            raise ValueError(f"C_values must be finite, got {C_values!r}")
        object.__setattr__(self, "C_values", C_values)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("seeds", "methods", "C_values"):
            _check_listed(name, getattr(self, name))

    @property
    def m_budget(self) -> float:
        return 1.1 * self.k

    @property
    def r(self) -> int:
        if self.clean_count_rule == "theory":
            return clean_count_theory(self.p)
        return int(self.clean_count_rule)

    def cells(self) -> list[dict]:
        """One dict per sweep cell: (m, r, n_outliers, x-axis value)."""
        r = self.r

        def budget(C):
            try:
                m = m_from_C(C, self.p)
            except OverflowError:   # 10**C is beyond a float
                m = math.inf
            if m > r:
                raise ValueError(f"C_values: C={C} gives m={m} > r={r}")
            return m

        out = []
        if self.outlier_rule == "half":
            n_out = math.ceil(r / 2)
            for C in self.C_values:
                m = budget(C)
                out.append({"m": m, "r": r, "n_outliers": n_out,
                            "x": float(m), "xlabel": "m"})
        else:
            m = budget(max(self.C_values))
            for prop in self.outlier_rule:
                n_out = math.ceil(prop / (1.0 - prop) * r)
                out.append({"m": m, "r": r, "n_outliers": n_out,
                            "x": float(prop), "xlabel": "outlier proportion"})
        field = "C_values" if self.outlier_rule == "half" else "outlier_rule"
        _check_listed(field, [(c["m"], c["n_outliers"]) for c in out],
                      "give two cells the same (m, n_outliers)")
        return out

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        extra = set(raw) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**raw)


def _check_listed(name: str, values, repeat: str = "repeat a value") -> None:
    """Raise ValueError naming `name` when values is empty or repeats one."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not {repeat}, got {list(values)!r}")


def certify_at_true_support(data: Dataset, selection: np.ndarray, lam: float) -> tuple:
    """Oracle-mode primal-dual witness: refit on the support of theta*, duals,
    KKT residuals.  kkt_feasible needs feasible duals, a positive second
    eigenvalue and a PSD matrix dual (>= -1e-8) with null-vector residual
    <= 1e-6.  Returns (support, th_S, cert, report, kkt_feasible)."""
    if data.theta_star is None:
        raise ValueError("certification needs theta_star in the dataset sidecar")
    support = np.flatnonzero(np.abs(data.theta_star) > 0)
    th_S = refit(data, selection, lam, support=support, tol=1e-10)[support]
    cert = build_duals(data, selection, th_S, lam, support)
    rep = kkt_residuals(cert, data, selection, lift_parameter(th_S), lam, support)
    kkt_feasible = bool(cert.feasible and rep.second_eig > 0
                        and rep.dual_feas_min_eig >= -1e-8
                        and rep.nullvec_residual <= 1e-6)
    return support, th_S, cert, rep, kkt_feasible


@functools.lru_cache(maxsize=8)
def _dataset(cfg: ExperimentConfig, r: int, n_outliers: int, seed: int) -> Dataset:
    """The trial dataset, generated once per process while a sweep runs.

    The frozen config is in the key, so every field the generator reads is
    too.  The arrays are read-only because trials share them.  A failed
    generation raises and is not cached.  With more seeds than `maxsize`
    the (cell, seed, method) task order still shares each dataset across
    the methods of one (cell, seed)."""
    gt = GroundTruthConfig(p=cfg.p, k=cfg.k, M=cfg.m_budget, sigma_e=cfg.sigma_e)
    spec = GenSpec(ground_truth=gt, r=r, n_outliers=n_outliers, seed=seed,
                   max_resamples=cfg.max_resamples, rho_min=cfg.rho_min)
    data = generate(spec)
    for arr in (data.X, data.y, data.labels, data.theta_star):
        arr.flags.writeable = False
    return data


def run_trial(cfg: ExperimentConfig, cell: dict, seed: int, method: str) -> tuple[dict, float]:
    """One (cell, seed, method) evaluation; returns (row dict, wall seconds).

    Trials that share (config, r, n_outliers, seed) share one dataset,
    generated by the first of them in each process during a sweep, so only
    that trial's wall seconds include generation."""
    t0 = time.perf_counter()
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(method=method, p=cfg.p, k=cfg.k, m=cell["m"], r=cell["r"],
               n_outliers=cell["n_outliers"], seed=seed, error="")
    try:
        data = _dataset(cfg, cell["r"], cell["n_outliers"], seed)
        m = cell["m"]
        lam = lambda_from_m(m, cfg.p, cfg.c_lambda)
        if method == "invex":
            scfg = SolverConfig(m=m, lam=lam)
            res = solve_invex(data, scfg)
            theta = res.theta_hat
            row["mistakes_frac"] = clean_recovery_mistakes(res.b_rounded, data.labels, m)
            row["delta_m"] = theory_delta_m(cfg.m_budget, lam, cfg.k, 1.0, m)
            row["kkt_feasible"] = certify_at_true_support(data, res.b_rounded, lam)[-1]
        elif method == "lasso":
            theta = lasso(data, BaselineConfig(lam=lam))
        elif method == "adahuber":
            theta = adaptive_huber_lasso(data, BaselineConfig(lam=lam))
        elif method == "trimmed":
            bcfg = BaselineConfig(lam=lam, trim_count=cell["n_outliers"])
            theta, _ = trimmed_lasso(data, bcfg)
        else:
            raise ValueError(f"unknown method {method}")
        row["jaccard"] = support_jaccard(theta, data.theta_star)
        row["norm_error"] = norm_error(theta, data.theta_star)
    except Exception as exc:  # record, never abort the sweep
        row["error"] = type(exc).__name__
    return row, time.perf_counter() - t0


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row.get(c)) for c in columns])


_AGG_KEYS = ("mistakes_frac", "jaccard", "norm_error", "delta_m")
AGG_COLUMNS = ["method", "p", "k", "m", "r", "n_outliers", "x", "n_seeds",
               *(f"{key}_{stat}" for key in _AGG_KEYS for stat in ("mean", "std")),
               "kkt_feasible_frac"]


def _aggregate(rows: list[dict], cells: list[dict], cfg: ExperimentConfig) -> list[dict]:
    agg = []
    for cell in cells:
        for method in cfg.methods:
            sub = [r for r in rows
                   if r["method"] == method and r["m"] == cell["m"]
                   and r["n_outliers"] == cell["n_outliers"] and not r["error"]]
            entry = {"method": method, "p": cfg.p, "k": cfg.k, "m": cell["m"],
                     "r": cell["r"], "n_outliers": cell["n_outliers"],
                     "x": cell["x"], "n_seeds": len(sub)}
            for key in _AGG_KEYS:
                vals = [r[key] for r in sub if r[key] is not None]
                entry[f"{key}_mean"] = float(np.mean(vals)) if vals else None
                entry[f"{key}_std"] = float(np.std(vals)) if vals else None
            flags = [r["kkt_feasible"] for r in sub if r["kkt_feasible"] is not None]
            entry["kkt_feasible_frac"] = float(np.mean(flags)) if flags else None
            agg.append(entry)
    return agg


def _plots(agg: list[dict], cells: list[dict], cfg: ExperimentConfig,
           outdir: Path) -> list[Path]:
    xlabel = cells[0]["xlabel"]
    suffix = "m" if xlabel == "m" else "proportion"

    def curve(method, key):
        pts = [(a["x"], a[f"{key}_mean"]) for a in agg if a["method"] == method]
        pts.sort()
        xs = [x for x, _ in pts]
        ys = [float("nan") if y is None else y for _, y in pts]
        return xs, ys

    paths = []
    if "invex" in cfg.methods:
        xs, ys = curve("invex", "mistakes_frac")
        paths.append(write_line_plot(
            outdir / f"mistakes_vs_{suffix}.svg",
            f"Clean-sample recovery mistakes (p={cfg.p}, k={cfg.k})",
            xlabel, "mistakes / m", [("invex", xs, ys)]))
    for key, ylabel in (("jaccard", "support Jaccard"), ("norm_error", "norm error")):
        series = []
        for method in cfg.methods:
            xs, ys = curve(method, key)
            label = method if method in ("invex", "lasso") else f"{method}-proxy"
            series.append((label, xs, ys))
        paths.append(write_line_plot(
            outdir / f"{key}_vs_{suffix}.svg",
            f"{ylabel} (p={cfg.p}, k={cfg.k})", xlabel, ylabel, series))
    return paths


def _env_workers(value: str) -> int:
    """Parse INVEX_THREADS: a positive integer, or a ValueError naming it."""
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"INVEX_THREADS must be a positive integer, got {value!r}")
    return workers


def run_sweep(cfg: ExperimentConfig, workers: int | None = None) -> dict:
    """Execute the sweep; returns paths and the in-memory row list.

    `workers` must be a positive integer; None reads INVEX_THREADS, else
    the CPU count.
    """
    if workers is None:
        env = os.environ.get("INVEX_THREADS")
        workers = _env_workers(env) if env else (os.cpu_count() or 1)
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    cells = cfg.cells()   # rejects a bad grid before anything is written
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, cell, seed, method)
             for cell in cells for seed in cfg.seeds for method in cfg.methods]
    workers = max(1, min(workers, len(tasks)))

    _dataset.cache_clear()   # before any fork: workers start empty
    try:
        if workers == 1:
            outcomes = [run_trial(*t) for t in tasks]
        else:
            # imported here: only a pool needs multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run_trial, *zip(*tasks), chunksize=1))
    finally:
        _dataset.cache_clear()

    rows = [row for row, _ in outcomes]
    timings = [{"method": row["method"], "m": row["m"],
                "n_outliers": row["n_outliers"], "seed": row["seed"],
                "wall_ms": 1000.0 * dt} for row, dt in outcomes]

    _write_csv(outdir / "results.csv", RESULT_COLUMNS, rows)
    agg = _aggregate(rows, cells, cfg)
    _write_csv(outdir / "aggregate.csv", AGG_COLUMNS, agg)
    _write_csv(outdir / "timings.csv",
               ["method", "m", "n_outliers", "seed", "wall_ms"], timings)
    plot_paths = _plots(agg, cells, cfg, outdir)

    meta = {"config": {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
            "c_lambda_note": "calibrated constant; the theory-scale constant "
                             "is far too conservative in practice"}
    with open(outdir / "sweep_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
    return {"rows": rows, "aggregate": agg,
            "results_csv": outdir / "results.csv",
            "aggregate_csv": outdir / "aggregate.csv",
            "plots": plot_paths}
