"""Comparison methods: standard lasso, a Huber-loss adaptive lasso proxy,
and a trimmed robust-lasso proxy.

The adaptive and trimmed variants approximate the published methods they
stand in for (documented as *-proxy in benchmark output); they exist as
comparison curves, not reference implementations.

All three solve lasso problems on the Gram form: a quadratic
theta^T H theta - 2 c^T theta, so every step costs a p x p product instead
of two n x p ones (the covariance update of Friedman, Hastie & Tibshirani
2010).  Each fit checks X and y and forms its Gram once
(`solver._gram`), and then carries it from solve to solve as the pair
(H, w): H = X^T diag(w) X at the 0/1 sample weights w it was last formed
at.  A solve at new weights w' updates H by `solver._weighted_gram`,
which touches only the rows whose weight changed, and c = X^T (w' y) is
formed directly, one n x p product that cannot drift.

The trimmed lasso is sparse LTS (Alfons, Croux & Gelper 2013): the
C-steps of `solver._c_steps`, the loop the invex solver runs, with the
lasso's penalty, keeping n - trim_count rows from all n.  Its first round
solves on X^T X itself, and each later round touches only the rows that
swapped in or out of the kept set, a median of 36 of the 1107 on the
fig2_p100 seed-0 cells, where every round drops 369 (the C-step updates of
FAST-LTS, Rousseeuw & Van Driessen 2006).  Every update adds or subtracts
a product A^T A, so the carried H stays exactly symmetric, and it stays
within about 1e-15 relative of X^T W X formed from every row.

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
returned theta is at most _TOL * (1 + lam), or the gradient's roundoff
floor 8 eps ||c||_inf when that is larger, as when y holds a gross
outlier.  Every solve is `solver._gram_solve`, the Gram-form L1 solve the
refit also runs, here with the lasso's penalty terms (`_lasso_solve`):
the sign pattern of the start point, corrected at most
`solver._SIGN_CORRECTIONS` times (`solver._sign_pattern_solve`), and only
when that fails the finite active-set completion
`solver._active_set_solve`, which ends exact.  The lasso method, the
stage-0 fit of the adaptive Huber lasso and the first trimmed round start
from theta = 0, where the first pattern is the coordinates that violate
stationarity.  Every Huber-stage round, and every trimmed round after the
first, starts from the previous theta, which nearly always has the new
solution's support and signs: the problems differ only through a few rows
changing branch or a small change in the kept set (the warm starts of
pathwise solvers, Friedman, Hastie & Tibshirani 2010).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_int, _check_nonneg
from .solver import _MAX_ROUNDS, _c_steps, _gram, _gram_solve, _weighted_gram

__all__ = ["BaselineConfig", "lasso", "adaptive_huber_lasso", "trimmed_lasso"]


@dataclass(frozen=True)
class BaselineConfig:
    lam: float = 1.0
    trim_count: int = 0   # samples `trimmed_lasso` drops each round

    def __post_init__(self):
        _check_nonneg("lam", self.lam)
        _check_int("trim_count", self.trim_count, 0)


_HUBER_ROUNDS = 50    # partition rounds a Huber stage runs before it warns
_TOL = 1e-10          # every lasso solve stops at residual _TOL * (1 + lam)


def _lasso_solve(H, c, lam_j, theta0, lam):
    """theta^T H theta - 2 c^T theta + sum_j lam_j |theta_j| by
    `solver._gram_solve` from theta0, with shift lam_j / 2 and no rank-one
    term.  Returns a theta whose subgradient residual is at most
    _TOL * (1 + lam), or the solve's roundoff floor when that is larger."""
    return _gram_solve(H, c, theta0, _TOL * (1.0 + lam), 0.5 * lam_j, 0.0)


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
    """Sparse LTS: the C-steps of `solver._c_steps` with the lasso's
    penalty, keeping the n - trim_count samples of smallest residual.

    Starts from theta = 0 on all n samples and stops when the kept set
    repeats.  A kept set that does not reach a fixed point, because it
    cycles or runs `solver._MAX_ROUNDS` rounds, warns.  Returns the last fit and
    the kept set it was fitted on, as a boolean mask.  Non-finite X or y
    raise ValueError.
    """
    n, p = data.n, data.p
    if cfg.trim_count >= n:
        raise ValueError("trim_count must be < n")
    theta, w, _, _, rounds, fixed, _ = _c_steps(
        data.X, data.y, np.ones(n), np.zeros(p), n - cfg.trim_count,
        np.full(p, 0.5 * cfg.lam), 0.0, _TOL * (1.0 + cfg.lam), _MAX_ROUNDS)
    if not fixed:
        warnings.warn(f"trimmed lasso: the kept set did not reach a fixed point in "
                      f"{rounds} rounds; returning the last fit", stacklevel=2)
    return theta, w > 0.0
