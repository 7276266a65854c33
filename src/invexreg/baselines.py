"""Comparison methods: standard lasso, a Huber-loss adaptive lasso proxy,
and a trimmed robust-lasso proxy.

The adaptive and trimmed variants approximate the published methods they
stand in for (documented as *-proxy in benchmark output); they exist as
comparison curves, not reference implementations.

All three solve lasso problems on the Gram form: a quadratic
theta^T H theta - 2 c^T theta, so every step costs a p x p product instead
of two n x p ones (the covariance update of Friedman, Hastie & Tibshirani
2010).  Each fit checks X and y and forms H1 = X^T X once (`_gram`), and
then carries its Gram from solve to solve as the pair (H, w): H =
X^T diag(w) X at the 0/1 sample weights w it was last formed at.  A
solve at new weights w' updates H by `_weighted_gram`, which touches only
the rows D whose weight changed, H' = H - X_D^T X_D for the rows that
drop out and H' = H + X_D^T X_D for those that join, and c = X^T (w' y)
is formed directly, one n x p product that cannot drift.  The trimmed
lasso's first round solves on H1 itself, and each later round touches
only the rows that swapped in or out of the kept set, a median of 36 of
the 1107 on the fig2_p100 seed-0 cells, where every round drops 369 (the
C-step updates of FAST-LTS, Rousseeuw & Van Driessen 2006).  Every update
adds or subtracts a product A^T A, so the carried H stays exactly
symmetric, and it stays within about 1e-15 relative of X^T W X formed
from every row.

Each stage of the adaptive Huber lasso minimizes the Huber loss plus the
L1 penalty exactly, by the finite Newton method of Madsen & Nielsen
(1990, BIT 30), in `_huber_stage`.  With the rows split at theta into the
quadratic branch Q (|r| <= delta) and the rest O, with signs s_O, the
stage is one lasso on H = X_Q^T X_Q and c = X_Q^T y_Q + delta X_O^T s_O:
the carried Gram at weight 0 on O, and c = X^T (w y + delta s).  One Gram
is carried through every round and every stage of the fit, so a round
touches only the rows that changed branch since the previous solve, a
median of 2 on those cells, where a quarter of the rows lie in O.  The stage
re-solves from each solution until the solution's own partition and signs
are the ones its system was built on, which makes it stationary for the
stage's objective; a solution that does not lower the objective is
replaced by a halved step towards it.  A stage takes about two solves on
the configs/ grids, and at most four.

The stop rule is the same on every path: the subgradient residual of the
returned theta is at most _TOL * (1 + lam), or 8 eps ||c||_inf when that
is larger, the floating-point floor of the gradient when y holds a gross
outlier.  Every solve is `_lasso_solve`, that is `solver._gram_solve`,
the Gram-form L1 solve the refit also runs, here with no rank-one term:
the sign pattern of the start point, corrected at most
`solver._SIGN_CORRECTIONS` times (`solver._sign_pattern_solve`), and only
when that fails the finite active-set completion
`solver._active_set_solve`, which ends exact.  The lasso method and the
stage-0 fit of the adaptive Huber lasso start from theta = 0, where the
first pattern is the coordinates that violate stationarity.  Every
Huber-stage round, and every trimmed round after the first, starts from
the previous theta, which nearly always has the new solution's support and
signs: the problems differ only through a few rows changing branch or a
small change in the kept set (the warm starts of pathwise solvers,
Friedman, Hastie & Tibshirani 2010).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_finite, _check_int, _check_nonneg
from .solver import _gram_solve

__all__ = ["BaselineConfig", "lasso", "adaptive_huber_lasso", "trimmed_lasso"]


@dataclass(frozen=True)
class BaselineConfig:
    lam: float = 1.0
    trim_count: int = 0   # samples `trimmed_lasso` drops each round

    def __post_init__(self):
        _check_nonneg("lam", self.lam)
        _check_int("trim_count", self.trim_count, 0)


_TRIM_ROUNDS = 5000   # rounds `trimmed_lasso` runs before it warns
_HUBER_ROUNDS = 50    # partition rounds a Huber stage runs before it warns
_TOL = 1e-10          # every lasso solve stops at residual _TOL * (1 + lam),
_ROUNDOFF = 8.0 * np.finfo(float).eps   # or at _ROUNDOFF * ||c||_inf if larger


@dataclass(eq=False)
class _Gram:
    """A fit's Gram, carried from solve to solve: H = X^T diag(w) X and the
    sample weights w it was last formed at."""
    H: np.ndarray
    w: np.ndarray


def _gram(X, y):
    """The carried Gram at weights 1, H1 = X^T X, formed once per fit;
    non-finite X or y raise ValueError."""
    _check_finite(("X", X), ("y", y))
    return _Gram(X.T @ X, np.ones(X.shape[0]))


def _weighted_gram(X, gram, w):
    """X^T W X, W = diag(w) for 0/1 weights w, updated in place from the
    carried `gram`.

    Only the rows D whose weight differs from `gram.w`, the weights the
    Gram was last formed at, are touched: with A = X[D], the rows that
    dropped out are downdated, H - A^T A, and those that joined updated,
    H + A^T A.  A product of a matrix with its own transpose keeps an
    exactly symmetric H exactly symmetric: `eigvalsh` reads one triangle of
    it and `np.linalg.solve` reads both.  `gram` then holds the new pair
    (H, w).  With no weight changed the Gram is returned as it is.
    """
    d = gram.w - w
    for D in (np.flatnonzero(d > 0), np.flatnonzero(d < 0)):
        if D.size:
            A = X[D]
            gram.H = gram.H - A.T @ A if d[D[0]] > 0 else gram.H + A.T @ A
    gram.w = w
    return gram.H


def _lasso_solve(H, c, lam_j, theta0, lam):
    """theta^T H theta - 2 c^T theta + sum_j lam_j |theta_j| by
    `solver._gram_solve` from theta0, with shift lam_j / 2 and no rank-one
    term.  Returns a theta whose subgradient residual is at most
    _TOL * (1 + lam), or _ROUNDOFF * ||c||_inf when that is larger."""
    bound = max(_TOL * (1.0 + lam), _ROUNDOFF * np.abs(c).max(initial=0.0))
    return _gram_solve(H, c, theta0, bound, 0.5 * lam_j, 0.0)


def lasso(data: Dataset, cfg: BaselineConfig) -> np.ndarray:
    """Standard lasso on all samples: sum of squared residuals + lam * ||theta||_1.
    Non-finite X or y raise ValueError."""
    X, y, p = data.X, data.y, data.p
    return _lasso_solve(_gram(X, y).H, X.T @ y, np.full(p, cfg.lam), np.zeros(p), cfg.lam)


def _mad_scale(resid) -> float:
    med = np.median(resid)
    return 1.4826 * float(np.median(np.abs(resid - med)))


def _huber_stage(X, y, gram, theta, delta, lam, lam_j):
    """min F(theta) = sum_i rho(r_i) + sum_j lam_j |theta_j|, r = y - X theta,
    with rho(r) = r^2 for |r| <= delta and 2 delta |r| - delta^2 beyond, by
    the finite Newton method of Madsen & Nielsen (1990), from theta.

    Each round splits the rows at theta into Q (|r| <= delta) and O, with
    signs s_O.  With that partition fixed F is the lasso on
    H = X_Q^T X_Q and c = X_Q^T y_Q + delta X_O^T s_O.  H is the carried
    `gram` at weights 1 on Q and 0 on O: `_weighted_gram` touches only the
    rows that changed branch since the fit's previous solve, in this stage
    or an earlier one.  c is formed directly, X^T (w y + delta s) with s
    zero on Q.  `_lasso_solve` solves it exactly, warm from theta.  A
    solution whose own partition and signs are the ones the system was
    built on is stationary for F, within the lasso's stop rule, and is
    returned.  Otherwise it becomes the next theta if it lowers F; if not,
    the step towards it is halved until F drops (the model agrees with F to
    first order at theta, so the step descends unless theta is already
    optimal to rounding, which returns theta).  Without that damping the
    iteration can cycle between partitions.  Each candidate's residual is
    formed once and serves both its objective and its partition.  A stage
    that has not settled after `_HUBER_ROUNDS` rounds warns and returns the
    last iterate.
    """
    def objective(th, r):
        a = np.abs(r)
        return float(np.where(a <= delta, a * a, delta * (2.0 * a - delta)).sum()
                     + lam_j @ np.abs(th))

    def signs_beyond_delta(r):
        return np.where(np.abs(r) > delta, np.sign(r), 0.0)

    r = y - X @ theta
    s, f = signs_beyond_delta(r), objective(theta, r)
    for _ in range(_HUBER_ROUNDS):
        w = (s == 0.0).astype(float)
        H, c = _weighted_gram(X, gram, w), X.T @ (w * y + delta * s)
        theta_new = _lasso_solve(H, c, lam_j, theta, lam)
        r_new = y - X @ theta_new
        s_new = signs_beyond_delta(r_new)
        if np.array_equal(s_new, s):
            return theta_new
        f_new, step = objective(theta_new, r_new), theta_new - theta
        t = 1.0
        while not f_new < f:
            t *= 0.5
            if t < np.finfo(float).eps:
                return theta
            theta_new = theta + t * step
            r_new = y - X @ theta_new
            f_new = objective(theta_new, r_new)
        if t < 1.0:
            s_new = signs_beyond_delta(r_new)
        theta, f, s = theta_new, f_new, s_new
    warnings.warn("adaptive Huber lasso: a Huber stage did not settle in "
                  f"{_HUBER_ROUNDS} partition rounds; using the last iterate",
                  stacklevel=3)
    return theta


def adaptive_huber_lasso(data: Dataset, cfg: BaselineConfig) -> np.ndarray:
    """Two-stage Huber-loss lasso with adaptive per-coordinate weights.

    Stage 1 minimizes the Huber loss of the residuals plus lam ||theta||_1,
    with delta = 1.345 x MAD of the residuals re-estimated before each
    stage from the last one's fit: the plain stage-0 lasso fit can be
    wrecked by gross outliers, and the iteration contracts the scale back
    to the clean residuals.
    Stage 2 re-solves with coordinate penalties lam / |theta_j| from the
    stage-1 estimate (capped at 1e6).  Each solve is exact: `_huber_stage`,
    the finite Newton method of Madsen & Nielsen (1990, BIT 30), solves the
    lasso on H = X_Q^T X_Q, c = X_Q^T y_Q + delta X_O^T s_O for the rows Q
    on the quadratic branch and the signs s_O of the others, stops when the
    solution's own partition and signs repeat, and halves the step towards
    a solution that does not lower the objective.  A stage that has not
    settled after `_HUBER_ROUNDS` partition rounds, or a scale that has
    not settled after 12 rounds, warns and goes on with the last iterate,
    as `trimmed_lasso` does.
    """
    X, y = data.X, data.y
    gram = _gram(X, y)
    lam_j = np.full(X.shape[1], float(cfg.lam))
    theta = _lasso_solve(gram.H, X.T @ y, lam_j, np.zeros(X.shape[1]), cfg.lam)

    delta = None
    theta1 = theta
    for _ in range(12):
        d_new = 1.345 * max(_mad_scale(y - X @ theta1), 1e-8)
        theta1 = _huber_stage(X, y, gram, theta1, d_new, cfg.lam, lam_j)
        if delta is not None and abs(d_new - delta) <= 1e-3 * delta:
            delta = d_new
            break
        delta = d_new
    else:
        warnings.warn("adaptive Huber lasso: the Huber scale did not settle "
                      "in 12 rounds; using the last one", stacklevel=2)

    inv = 1.0 / np.maximum(np.abs(theta1), 1e-12)
    coord_weights = np.minimum(inv, 1e6)
    return _huber_stage(X, y, gram, theta1, delta, cfg.lam, cfg.lam * coord_weights)


def trimmed_lasso(data: Dataset, cfg: BaselineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Alternate lasso fits with dropping the largest-residual samples.

    Keeps n - trim_count samples each round; stops at a fixed point of the
    kept set or after `_TRIM_ROUNDS` rounds.  A cycling kept set triggers a
    warning and returns the last iterate.
    """
    n, X, y = data.n, data.X, data.y
    if cfg.trim_count >= n:
        raise ValueError("trim_count must be < n")
    keep_size = n - cfg.trim_count
    kept = np.ones(n, dtype=bool)
    gram = _gram(X, y)
    lam_j = np.full(data.p, cfg.lam)
    theta = np.zeros(data.p)  # the first round starts cold, later ones from the last theta
    seen = set()
    for _ in range(_TRIM_ROUNDS):
        w = kept.astype(float)
        theta = _lasso_solve(_weighted_gram(X, gram, w), X.T @ (w * y), lam_j, theta, cfg.lam)
        resid = np.abs(y - X @ theta)
        order = np.argsort(resid, kind="stable")
        new_kept = np.zeros(n, dtype=bool)
        new_kept[order[:keep_size]] = True
        if np.array_equal(new_kept, kept):
            return theta, kept
        key = new_kept.tobytes()
        if key in seen:
            warnings.warn("trimmed lasso kept set is cycling; returning last iterate",
                          stacklevel=2)
            return theta, new_kept
        seen.add(key)
        kept = new_kept
    warnings.warn("trimmed lasso did not reach a fixed point", stacklevel=2)
    return theta, kept
