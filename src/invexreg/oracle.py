"""Brute-force ground truth for tiny instances.

Enumerates every size-m subset of the samples and solves the inner
penalized regression on each, so solver output can be checked against the
true discrete-continuous optimum.  A test fixture, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .model import Dataset
from .solver import _as_rows, refit

__all__ = ["CombinatorialBlowup", "OracleResult", "enumerate_best_subset",
           "subset_objective", "grid_search_theta"]


class CombinatorialBlowup(RuntimeError):
    """C(n, m) exceeds the configured enumeration cap."""


@dataclass(eq=False)
class OracleResult:
    J_star: tuple[int, ...]
    theta_under: np.ndarray          # the refit on J_star
    objective: float


def subset_objective(data: Dataset, rows: np.ndarray, theta: np.ndarray,
                     lam: float) -> float:
    """sum over rows of squared residual plus lam (||theta||_1 + 1)^2.

    The rows are a 0/1 mask or row indices, as `solver._as_rows` reads them.
    """
    rows = _as_rows(rows, data.n)
    res = data.y[rows] - data.X[rows] @ theta
    return float(res @ res + lam * (np.abs(theta).sum() + 1.0) ** 2)


def enumerate_best_subset(data: Dataset, m: int, lam: float,
                          cap: int = 100_000) -> OracleResult:
    """Solve the subset-selection regression exactly by enumeration.

    The inner regression is convex, so one `refit` per subset solves it.
    Ties in the objective resolve to the lexicographically smallest subset
    (enumeration order), matching the deterministic reduction contract.
    """
    n = data.n
    if m > n:
        raise ValueError(f"m={m} exceeds n={n}")
    total = comb(n, m)
    if total > cap:
        raise CombinatorialBlowup(f"C({n},{m}) = {total} exceeds cap {cap}")
    best = None
    for J in combinations(range(n), m):
        rows = np.asarray(J, dtype=int)
        theta = refit(data, rows, lam)
        obj = subset_objective(data, rows, theta, lam)
        if best is None or obj < best[1] - 1e-12:
            best = (J, obj, theta)
    J_star, objective, theta = best
    return OracleResult(J_star=tuple(J_star), theta_under=theta, objective=objective)


def grid_search_theta(data: Dataset, rows: np.ndarray, lam: float,
                      radius: float, step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Solver-free inner-problem oracle for p <= 2: dense grid over theta.

    Returns the best grid point and its objective; breaks the circularity
    between the refit routine and the enumeration oracle.
    """
    if data.p > 2:
        raise ValueError("grid oracle only supports p <= 2")
    rows = _as_rows(rows, data.n)
    grid = np.arange(-radius, radius + step, step)
    TH = np.stack([G.ravel() for G in np.meshgrid(*[grid] * data.p, indexing="ij")])
    R = data.y[rows][:, None] - data.X[rows] @ TH
    obj = (R * R).sum(axis=0) + lam * (np.abs(TH).sum(axis=0) + 1.0) ** 2
    i = int(obj.argmin())
    return TH[:, i].copy(), float(obj[i])
