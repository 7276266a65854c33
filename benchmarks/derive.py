"""Metrics and output checks derived from a sweep's CSV tables and solves.

Everything here is a pure function of `results.csv` / `timings.csv` rows
(as dicts of strings, the way csv.DictReader returns them), aggregate rows
and captured (data, SolverConfig, SolveResult) triples, so the tests can
feed hand-made tables.
"""

from __future__ import annotations

import csv
import statistics
from pathlib import Path

import numpy as np

INVEX = "invex"
BASELINES = ("lasso", "adahuber", "trimmed")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mean(values: list[float]) -> float | None:
    return float(statistics.fmean(values)) if values else None


def trial_walls(timings: list[dict], methods) -> list[float]:
    """Wall seconds of each trial of `methods`."""
    return [float(r["wall_ms"]) / 1000.0 for r in timings if r["method"] in methods]


def s_per_trial(timings_per_sweep: list[list[dict]], methods) -> float | None:
    """Mean over trials of each trial's median wall seconds across repeated
    sweeps of one panel (every sweep lists the trials in the same order)."""
    walls = [trial_walls(t, methods) for t in timings_per_sweep]
    return _mean([statistics.median(w) for w in zip(*walls)])


def column_mean(results: list[dict], methods, key: str) -> float | None:
    """Mean of a results.csv column over rows of `methods` that hold a value."""
    return _mean([float(r[key]) for r in results
                  if r["method"] in methods and r[key] != ""])


def error_count(results: list[dict]) -> int:
    return sum(1 for r in results if r["error"])


def kkt_feasible_frac(results: list[dict]) -> float | None:
    return column_mean(results, (INVEX,), "kkt_feasible")


def invex_objective(data, scfg, res) -> float:
    """(sum_sel (y - x theta)^2 + lam (||theta||_1 + 1)^2) / m at the returned
    selection and estimate."""
    sel = res.b_rounded > 0.5
    theta = res.theta_hat
    resid = data.y[sel] - data.X[sel] @ theta
    return float((resid @ resid + scfg.lam * (np.abs(theta).sum() + 1.0) ** 2) / scfg.m)


def solve_stats(solves: list[tuple]) -> dict[str, float | None]:
    """Means over captured invex solves."""
    return {
        "objective": _mean([invex_objective(d, c, r) for d, c, r in solves]),
        "outer_iters": _mean([float(r.outer_iters) for _, _, r in solves]),
        "converged_frac": _mean([float(r.converged) for _, _, r in solves]),
    }


def overhead_s(sweep_s: float, walls: list[float], workers: int) -> float:
    """Sweep time not spent inside trials: aggregation, CSV and SVG output,
    pool start-up and dispatch, and idle workers at the end."""
    return sweep_s - sum(walls) / workers


def pool_efficiency(sweep_s: float, walls: list[float], workers: int) -> float:
    return sum(walls) / (workers * sweep_s)


def check_selection_sizes(solves: list[tuple]) -> list[str]:
    """Every invex b_rounded must select exactly m rows."""
    problems = []
    for _, scfg, res in solves:
        b = np.asarray(res.b_rounded)
        picked = int(np.count_nonzero(b > 0.5))
        if picked != scfg.m or not np.all((b == 0.0) | (b == 1.0)):
            problems.append(f"invex b_rounded selects {picked} rows, m={scfg.m}")
    return problems


def check_fig2_shape(aggregate: list[dict]) -> list[str]:
    """Acceptance 07's shape at the largest m: invex mistakes <= 0.05,
    Jaccard >= 0.95 and norm error below lasso's."""
    def at_largest(method):
        rows = [a for a in aggregate if a["method"] == method]
        return max(rows, key=lambda a: int(a["m"]))

    inv, las = at_largest(INVEX), at_largest("lasso")
    mistakes, jac = float(inv["mistakes_frac_mean"]), float(inv["jaccard_mean"])
    err, las_err = float(inv["norm_error_mean"]), float(las["norm_error_mean"])
    if mistakes <= 0.05 and jac >= 0.95 and err < las_err:
        return []
    return [f"fig2 shape at m={inv['m']}: mistakes={mistakes:.3f}, jaccard={jac:.3f}, "
            f"norm error {err:.3f} vs lasso {las_err:.3f}"]
