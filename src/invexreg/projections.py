"""Euclidean projections and proximal operators for the lifted feasible set.

Three pieces: projection onto the box-with-minimum-sum polytope for the
selection weights, a one-shift feasibility repair for the
PSD-with-fixed-corner matrix set, and the entrywise soft-threshold prox.
Matrices are plain float arrays; `project_psd_corner` returns one that is
feasible in the sense of `model`: symmetric PSD with V[-1, -1] == 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BFeasibleSet", "project_b", "project_psd_corner", "prox_entrywise_l1"]


@dataclass(frozen=True)
class BFeasibleSet:
    """{b in [0,1]^n : sum b_i >= m}; nonempty iff m <= n."""

    n: int
    m: float

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError(f"infeasible set: need 1 <= m <= n, got m={self.m}, n={self.n}")


def project_b(v: np.ndarray, bset: BFeasibleSet) -> np.ndarray:
    """Exact Euclidean projection onto {b in [0,1]^n, sum b >= m}.

    Clip to the box; if the sum constraint holds we are done.  Otherwise the
    projection is clip(v + mu, 0, 1) for the unique mu > 0 making the sum
    equal m, found by scanning the sorted breakpoints of the piecewise-linear
    sum function.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (bset.n,):
        raise ValueError("v has wrong length")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to project_b")
    w = np.clip(v, 0.0, 1.0)
    s = w.sum()
    if s >= bset.m:
        return w
    # breakpoints where a coordinate enters the interior (mu = -v_i) or
    # saturates at one (mu = 1 - v_i); sum is linear between them
    bps = np.unique(np.concatenate([-v, 1.0 - v]))
    bps = bps[bps > 0.0]
    lo, s_lo = 0.0, s
    for hi in bps:
        s_hi = np.clip(v + hi, 0.0, 1.0).sum()
        if s_hi >= bset.m:
            mid = 0.5 * (lo + hi)
            active = int(np.count_nonzero((v + mid > 0.0) & (v + mid < 1.0)))
            mu = hi if active == 0 else lo + (bset.m - s_lo) / active
            return np.clip(v + mu, 0.0, 1.0)
        lo, s_lo = hi, s_hi
    return np.ones_like(v)  # beyond the last breakpoint everything saturates


_REPAIR_TOL = 1e-9     # eigenvalue violation the repair accepts


def project_psd_corner(Mtx: np.ndarray) -> np.ndarray:
    """Feasibility repair onto {V PSD, V[-1,-1] = 1}.

    Symmetrizes the input and pins the corner entry, then tests feasibility
    with a Cholesky factorization of S + tol I, tol = `_REPAIR_TOL`.  When
    that succeeds (minimum eigenvalue above -tol) S is returned as is, with
    no eigendecomposition.  When it fails, one `eigvalsh` gives
    eps = -lambda_min(S) and S is shifted by the feasible map
    S -> (S + eps I) / (1 + eps), which makes the minimum eigenvalue zero and
    keeps the corner at 1.  The result is a feasible point, not the
    Euclidean projection: an indefinite input comes back shifted and scaled.
    """
    S = np.asarray(Mtx, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("input must be square")
    if not np.all(np.isfinite(S)):
        raise ValueError("non-finite input to project_psd_corner")
    S = 0.5 * (S + S.T)
    S[-1, -1] = 1.0
    try:
        np.linalg.cholesky(S + _REPAIR_TOL * np.eye(S.shape[0]))
        return S
    except np.linalg.LinAlgError:
        pass
    eps = -float(np.linalg.eigvalsh(S)[0])
    S = (S + eps * np.eye(S.shape[0])) / (1.0 + eps)
    S[-1, -1] = 1.0
    return S


def prox_entrywise_l1(Mtx: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise soft threshold: the exact prox of tau * ||.||_1."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    M = np.asarray(Mtx, dtype=float)
    return M - np.clip(M, -tau, tau)
