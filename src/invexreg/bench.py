"""Experiment runner: recovery sweeps over the selection budget m or the
outlier proportion, with per-trial CSV rows, aggregated curves and SVG
panels.

Trials are independent (seed x cell x method) and run on a pool of
`run_sweep`'s `workers` processes; results are reduced in a fixed
(cell, seed, method) order so output bytes do not depend on scheduling.
A dataset depends only on the config, the cell's r and n_outliers and the
seed, not on m or the method, so the trials that share one generate it
once per process per sweep.  Wall-clock timings go to a separate
timings.csv because the result files are byte-reproducible; a trial's
wall_ms includes generation only when it is the first in its process to
need that dataset, and the first generation in a process also imports
numpy.random.  No trial pays any other first-use import
(tests/test_dependencies.py checks this).  `certify_at_true_support` is
the one certificate recipe, for the `kkt_feasible` column and `invexreg
certify`.  A method is one entry of `METHODS`: its plot label and its fit.
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

from .baselines import adaptive_huber_lasso, lasso, trimmed_lasso
from .certify import build_duals, kkt_residuals
from .datagen import GenSpec, generate
from .metrics import clean_recovery_mistakes, norm_error, support_jaccard, theory_delta_m
from .model import Dataset, _check_int, _check_nonneg, _write_json, lift_parameter
from .solver import SolverConfig, refit, solve_invex
from .svgplot import write_line_plot

__all__ = ["ExperimentConfig", "run_sweep", "clean_count_theory", "m_from_C",
           "lambda_from_m", "certify_at_true_support", "RESULT_COLUMNS"]

RESULT_COLUMNS = ["method", "p", "k", "m", "r", "n_outliers", "seed",
                  "mistakes_frac", "jaccard", "norm_error", "delta_m",
                  "kkt_feasible", "error"]


def _fit_invex(data: Dataset, cell: dict, lam: float) -> tuple:
    m = cell["m"]
    res = solve_invex(data, SolverConfig(m=m, lam=lam))
    return res.theta_hat, {
        "mistakes_frac": clean_recovery_mistakes(res.b_rounded, data.labels, m),
        "delta_m": theory_delta_m(data.meta["M"], lam, data.meta["k"], m),
        "kkt_feasible": certify_at_true_support(data, res.b_rounded, lam)[-1]}


# name -> (plot label, fit).  A fit takes (data, cell, lam) and returns theta
# and the result columns only that method fills.  The fits look the solvers
# up in this module at each call, so a traced run sees them, and a pool
# worker looks a fit up by its name, so no callable is pickled.
METHODS = {
    "invex": ("invex", _fit_invex),
    "lasso": ("lasso", lambda data, cell, lam: (lasso(data, lam), {})),
    "adahuber": ("adahuber-proxy",
                 lambda data, cell, lam: (adaptive_huber_lasso(data, lam), {})),
    # told the cell's true outlier count
    "trimmed": ("trimmed-proxy",
                lambda data, cell, lam: (trimmed_lasso(data, lam, cell["n_outliers"])[0], {})),
}


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
    "half" or a list of proportions in (0, 1), c_lambda is finite and > 0,
    sigma_e and rho_min are finite reals >= 0, the C values are finite,
    methods are keys of `METHODS`, and seeds, methods, C_values and the
    proportions are non-empty lists (or tuples) with no repeats, or
    ValueError names the field.  `cells` also rejects a C value whose m
    exceeds r, a second C value in a proportions grid, which runs one m,
    and two cells with the same m and outlier count, whose trials
    `_aggregate` would pool."""

    p: int = 50
    k: int = 4
    clean_count_rule: str | int = "theory"   # "theory" or explicit r
    outlier_rule: str | tuple = "half"       # "half" or proportions of n
    C_values: tuple = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
    c_lambda: float = 0.05
    methods: tuple = tuple(METHODS)
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
        if self.c_lambda == 0:
            raise ValueError(f"c_lambda must be > 0, got {self.c_lambda!r}")
        for name in ("seeds", "methods", "C_values"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        for seed in self.seeds:
            _check_int("seeds", seed, 0)
        if self.clean_count_rule != "theory":
            _check_int("clean_count_rule", self.clean_count_rule, 1)
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}, "
                             f"known: {list(METHODS)}")
        if self.outlier_rule != "half":
            if not isinstance(self.outlier_rule, (list, tuple)):
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

        ms = [budget(C) for C in self.C_values]
        if self.outlier_rule == "half":
            out = [{"m": m, "r": r, "n_outliers": math.ceil(r / 2),
                    "x": float(m), "xlabel": "m"} for m in ms]
        else:
            if len(ms) > 1:
                raise ValueError(f"C_values: a proportions grid takes one C value, "
                                 f"got {list(self.C_values)!r}")
            out = [{"m": ms[0], "r": r, "n_outliers": math.ceil(prop / (1.0 - prop) * r),
                    "x": float(prop), "xlabel": "outlier proportion"}
                   for prop in self.outlier_rule]
        field = "C_values" if self.outlier_rule == "half" else "outlier_rule"
        _check_listed(field, [(c["m"], c["n_outliers"]) for c in out],
                      "give two cells the same (m, n_outliers)")
        return out

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
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
    th_S = refit(data, selection, lam, support=support)[support]
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
    too.  A failed generation raises and is not cached.  With more seeds
    than `maxsize` the (cell, seed, method) task order still shares each
    dataset across the methods of one (cell, seed)."""
    return generate(GenSpec(p=cfg.p, k=cfg.k, r=r, n_outliers=n_outliers, seed=seed,
                            sigma_e=cfg.sigma_e, max_resamples=cfg.max_resamples,
                            rho_min=cfg.rho_min))


def run_trial(cfg: ExperimentConfig, cell: dict, seed: int, method: str) -> tuple[dict, float]:
    """One (cell, seed, method) evaluation; returns (row dict, wall seconds).

    Trials that share (config, r, n_outliers, seed) share one dataset,
    generated by the first of them in each process during a sweep, so only
    that trial's wall seconds include generation (and, for the process's
    first dataset, the import of numpy.random).  No method imports a module
    on its first trial."""
    t0 = time.perf_counter()
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(method=method, p=cfg.p, k=cfg.k, m=cell["m"], r=cell["r"],
               n_outliers=cell["n_outliers"], seed=seed, error="")
    try:
        data = _dataset(cfg, cell["r"], cell["n_outliers"], seed)
        _, fit = METHODS[method]
        theta, extra = fit(data, cell, lambda_from_m(cell["m"], cfg.p, cfg.c_lambda))
        row.update(extra, jaccard=support_jaccard(theta, data.theta_star),
                   norm_error=norm_error(theta, data.theta_star))
    except Exception as exc:  # record, never abort the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
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
            series.append((METHODS[method][0], xs, ys))
        paths.append(write_line_plot(
            outdir / f"{key}_vs_{suffix}.svg",
            f"{ylabel} (p={cfg.p}, k={cfg.k})", xlabel, ylabel, series))
    return paths


def run_sweep(cfg: ExperimentConfig, workers: int | None = None) -> dict:
    """Execute the sweep; returns paths and the in-memory row list.

    `workers`, the process count, must be a positive integer (a Python or
    numpy integer, not a bool), or ValueError is raised before anything is
    written; None means the CPUs this process may run on (its affinity
    set where the OS has one, else the CPU count).
    """
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) \
            or workers < 1:
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
    _write_json(outdir / "sweep_meta.json", meta)
    return {"rows": rows, "aggregate": agg,
            "results_csv": outdir / "results.csv",
            "aggregate_csv": outdir / "aggregate.csv",
            "plots": plot_paths}
