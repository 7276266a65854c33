"""Solver for the combinatorial problem and the selected-subset refit.

The problem picks m samples and fits theta on them: minimize
sum_i b_i (y_i - x_i^T theta)^2 + lam (||theta||_1 + 1)^2 over 0/1 weights
b with at least m ones and over theta.  In the lift (`model`) each squared
loss is <A_i, V> at V = z z^T, z = [theta; 1], and the penalty is
lam ||V||_1.  For fixed b the V block, minimize <G, V> + lam ||V||_1 over
PSD V with V[-1, -1] = 1 and G = sum_i b_i A_i, is convex, and its
minimizer is the rank-one lift of the refit on the rows b weights (Burer &
Monteiro 2003; the dual record below shows it).  So `solve_invex` works in
theta, by the C-steps of penalized least trimmed squares (Rousseeuw & Van
Driessen 2006).  From theta = 0, each outer round

- selects the m smallest squared residuals (the exact b-step),
- refits theta on the selected rows' Gram form H = X_sel^T X_sel,
  c = X_sel^T y_sel, warm-started from theta; with 0/1 weights these are
  G's blocks, G[:-1, :-1] and -G[:-1, -1], so the block and the refit are
  one problem, and forming them from the m selected rows costs O(m p^2),
  not the O(n p^2) of G over all rows,
- keeps the refit when it lowers the refit objective
  f(theta) = theta^T H theta - 2 c^T theta + lam (||theta||_1 + 1)^2,
  the block objective at the lift of theta less the constant G[-1, -1].

An objective re-check after the b-step keeps the trace monotone.  The
reported parameter estimate comes from refitting on the final selection,
warm-started from the last round's refit.

The refit is exact on a sign pattern.  With the signs s of theta on its
nonzeros A, f is the quadratic theta^T (H + lam s s^T) theta
- 2 (c - lam s)^T theta + lam on those coordinates, whose minimizer solves
(H_AA + lam s_A s_A^T) theta_A = c_A - lam s_A.  A warm C-step nearly
always keeps its sign pattern, so `_refit_gram` first solves that system
and corrects the pattern a few times (`_sign_pattern_solve`, the
active-set method of Osborne, Presnell & Turlach 2000), and returns the
first candidate that meets the refit's stop rule.  Only when none does, or
a system is singular, does it run FISTA; `SolveResult.fista_refits`
counts those refits.

The dual record.  With w the refit's subgradient of ||theta||_1,
s = [w; 1] and mu = (G z)[-1] + lam s^T z, the dual
Lambda = G + lam s s^T - mu e e^T certifies V* = z z^T when it is PSD:
Lambda z = 0 is the refit's stationarity and s s^T lies in the
subdifferential of ||V*||_1, so Lambda PSD is the block's KKT condition.
It is PSD up to the refit's tolerance: M = G + lam s s^T is PSD and
M z = mu e, so (z^T M x)^2 <= (z^T M z)(x^T M x) reads
mu x[-1]^2 <= x^T M x, which is Lambda = M - mu e e^T PSD, even when M is
singular (m < p + 1).  `solve_invex` builds Lambda once, at theta_hat and
the final selection, and reports min eig(Lambda) / max|Lambda| as
`dual_min_eig`; at or above -1e-9 it certifies that theta_hat's lift
minimizes the V block there.  It can fall below only through the refit's
tolerance or its iteration cap, and a refit that stops at the cap warns.

The refit and the baselines' lasso solves are one Gram-form solve,
`_gram_solve`: exact first, FISTA only as the fallback.  They differ only
in the penalty's terms, the prox and the weights of the stationarity
residual `_l1_residual` they pass.  The V gradient sum_i b_i A_i is
`model.lifted_gram`, which the dual record and the dual certificate use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_finite, _check_int, _check_nonneg, lifted_gram
# unused here; the benchmark's traces and tests/test_bench.py look them up on this module
from .model import sample_losses  # noqa: F401
from .projections import project_psd_corner, prox_entrywise_l1  # noqa: F401

__all__ = [
    "InfeasibleM",
    "NonFinite",
    "SolverConfig",
    "SolveResult",
    "grad_vartheta",
    "solve_invex",
    "refit",
    "prox_l1_plus_one_squared",
]


class InfeasibleM(ValueError):
    """Requested selection size exceeds the number of samples."""


class NonFinite(RuntimeError):
    """The objective became non-finite."""


@dataclass(frozen=True)
class SolverConfig:
    """m and max_outer are integers >= 1, lam and tol_obj finite and >= 0,
    or ValueError names the field."""

    m: int
    lam: float
    max_outer: int = 200
    tol_obj: float = 1e-8

    def __post_init__(self):
        _check_int("m", self.m, 1)
        _check_int("max_outer", self.max_outer, 1)
        _check_nonneg("lam", self.lam)
        _check_nonneg("tol_obj", self.tol_obj)


@dataclass(eq=False)
class SolveResult:
    b_rounded: np.ndarray
    theta_hat: np.ndarray
    objective_trace: list[float]
    outer_iters: int
    converged: bool
    dual_min_eig: float   # min eig / max|.| of the V block's dual at theta_hat
    fista_refits: int     # refits, the final one included, that fell back to FISTA
    config: SolverConfig | None = None

    @property
    def selection(self) -> np.ndarray:
        return np.flatnonzero(self.b_rounded > 0.5)


def grad_vartheta(b: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of the smooth part in V: sum_i b_i A_i (`lifted_gram`)."""
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite b")
    return lifted_gram(data.X, data.y, b)


def _rank_one_dual(G: np.ndarray, theta: np.ndarray, lam: float) -> np.ndarray:
    """The V block's matrix dual Lambda = G + lam s s^T - mu e e^T at
    V* = z z^T, z = [theta; 1] (see the module docstring)."""
    z = np.append(theta, 1.0)
    Gz = G @ z
    w, _ = _recover_subgradient(theta, Gz[:-1], lam)
    s = np.append(w, 1.0)
    Lam = G + lam * np.outer(s, s)
    Lam[-1, -1] -= Gz[-1] + lam * (s @ z)
    return Lam


def _dual_min_eig(G: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """min eig(Lambda) / max|Lambda| of `_rank_one_dual` (0 when Lambda = 0)."""
    Lam = _rank_one_dual(G, theta, lam)
    scale = float(np.abs(Lam).max())
    return float(np.linalg.eigvalsh(Lam)[0]) / scale if scale > 0.0 else 0.0


def _refit_objective(H: np.ndarray, c: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """theta^T H theta - 2 c^T theta + lam (||theta||_1 + 1)^2: the refit's
    objective, which is the V block's at the lift of theta less G[-1, -1]."""
    return float(theta @ (H @ theta) - 2.0 * (c @ theta)
                 + lam * (np.abs(theta).sum() + 1.0) ** 2)


def solve_invex(data: Dataset, cfg: SolverConfig) -> SolveResult:
    """C-steps in theta: alternate the exact b-step with a warm refit on
    the selected rows, kept when it lowers the block objective.

    Stops when the relative objective decrease over an outer round falls
    below tol_obj.  The rounded selection is the final b-step's top-m set
    and theta_hat is the refit on that selection.
    """
    if cfg.m > data.n:
        raise InfeasibleM(f"m={cfg.m} exceeds n={data.n}")
    lam = cfg.lam
    X, y = data.X, data.y

    def select(th):
        """The b-step at theta: weight one on the m smallest squared
        residuals, ties resolved by smallest index.  Returns (weights,
        sorted indices, objective)."""
        r = y - X @ th
        losses = r * r
        sel = np.sort(np.argsort(losses, kind="stable")[:cfg.m])
        b = np.zeros(data.n)
        b[sel] = 1.0
        return b, sel, float(b @ losses + lam * (np.abs(th).sum() + 1.0) ** 2)

    def gram(sel):
        """H = X_sel^T X_sel and c = X_sel^T y_sel, the refit's Gram form."""
        Xs = X[sel]
        return Xs.T @ Xs, Xs.T @ y[sel]

    theta = np.zeros(data.p)   # the kept iterate
    refitted = theta           # the last refit, the final refit's warm start
    fista_refits = 0
    b, sel, obj = select(theta)
    if not np.isfinite(obj):
        raise NonFinite("objective not finite at initialization")
    trace = [obj]

    converged = False
    outer = 0
    for outer in range(1, cfg.max_outer + 1):
        H, c = gram(sel)
        refitted, fista = _refit_gram(H, c, theta, lam)
        fista_refits += fista
        if _refit_objective(H, c, refitted, lam) < _refit_objective(H, c, theta, lam):
            theta = refitted

        b, sel, new_obj = select(theta)
        if not np.isfinite(new_obj):
            raise NonFinite("objective diverged")
        # guard against round-off: the trace never rises
        new_obj = min(new_obj, trace[-1])
        trace.append(new_obj)
        if trace[-2] - new_obj <= cfg.tol_obj * abs(trace[-2]) + 1e-12:
            converged = True
            break

    # warm from the last round's refit, which usually solved this refit
    theta_hat, fista = _refit_gram(*gram(sel), refitted, lam)
    fista_refits += fista
    return SolveResult(
        b_rounded=b, theta_hat=theta_hat, objective_trace=trace,
        outer_iters=outer, converged=converged,
        dual_min_eig=_dual_min_eig(grad_vartheta(b, data), theta_hat, lam),
        fista_refits=fista_refits, config=cfg,
    )


def prox_l1_plus_one_squared(v: np.ndarray, c: float) -> np.ndarray:
    """Exact prox of z -> c * (||z||_1 + 1)^2.

    Minimizes 0.5||z - v||^2 + c ||z||_1^2 + 2c ||z||_1.  The solution is a
    soft threshold by t where t solves t = 2c (sum_i max(|v_i| - t, 0) + 1),
    found by a scan over the sorted breakpoints of the piecewise-linear
    fixed-point equation.
    """
    v = np.asarray(v, dtype=float)
    if c < 0:
        raise ValueError("c must be >= 0")
    if c == 0.0:
        return v.copy()
    a = np.sort(np.abs(v))[::-1]
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    js = np.arange(a.size + 1)
    t = 2.0 * c * (prefix + 1.0) / (1.0 + 2.0 * c * js)
    upper = np.concatenate([[np.inf], a])   # a_(j) with 1-based j
    lower = np.concatenate([a, [0.0]])      # a_(j+1)
    ok = np.flatnonzero((upper > t) & (t >= lower))
    if ok.size:
        j = int(ok[0])
    else:  # fp boundary tie: take the segment with the smallest violation
        j = int(np.argmin(np.maximum(t - upper, 0.0) + np.maximum(lower - t, 0.0)))
    return np.sign(v) * np.maximum(np.abs(v) - t[j], 0.0)


def _recover_subgradient(theta, g, lam):
    """Subgradient of ||.||_1 at theta consistent with stationarity.

    Sign on the nonzero coordinates; on zeros, solved from the residual
    balance g + lam (||theta||_1 + 1) w = 0 and clipped to [-1, 1].
    Returns (w, clip_count).
    """
    w = np.sign(theta)
    s1 = float(np.abs(theta).sum())
    clip_count = 0
    zero = theta == 0.0
    if lam > 0 and zero.any():
        raw = -g[zero] / (lam * (s1 + 1.0))
        clipped = np.clip(raw, -1.0, 1.0)
        clip_count = int(np.count_nonzero(raw != clipped))
        w[zero] = clipped
    return w, clip_count


def _as_rows(selection: np.ndarray, n: int, name: str = "selection") -> np.ndarray:
    """Indices of a selection given as a 0/1 mask or as indices.

    Bool and float arrays are masks: 1-d, length n, entries 0 or 1.
    Integer arrays are indices in [0, n).  Anything else raises, so an
    index array is never read as a mask or the other way round.  Errors
    call the input `name`: "selection" for rows, "support" for columns.
    """
    sel = np.asarray(selection)
    if sel.dtype == bool or np.issubdtype(sel.dtype, np.floating):
        if sel.shape != (n,) or not np.all((sel == 0) | (sel == 1)):
            raise ValueError(f"a {sel.dtype} {name} must be a 0/1 mask of "
                             f"length {n}, got shape {sel.shape}")
        return np.flatnonzero(sel)
    if np.issubdtype(sel.dtype, np.integer) and sel.ndim == 1:
        if sel.size and (sel.min() < 0 or sel.max() >= n):
            raise ValueError(f"{name} indices must lie in [0, {n})")
        return sel.astype(int)
    raise ValueError(f"{name} must be a 0/1 mask or 1-d integer indices, "
                     f"got dtype {sel.dtype} and shape {sel.shape}")


def _l1_residual(theta, g, tau):
    """Stationarity residual at theta of a loss with gradient g plus
    sum_j tau_j |theta_j|: |g_j + tau_j sign(theta_j)| on the nonzeros and
    max(|g_j| - tau_j, 0) on the zeros."""
    return np.where(theta != 0.0, np.abs(g + tau * np.sign(theta)),
                    np.maximum(np.abs(g) - tau, 0.0))


def _fista(H, c, theta, prox, residual, bound, max_iters):
    """FISTA with adaptive restart (Beck & Teboulle 2009) on the Gram form
    theta^T H theta - 2 c^T theta + penalty, H = X^T X, c = X^T y (Friedman,
    Hastie & Tibshirani 2010): the gradient is 2 (H z - c) and the step 1/L
    with L = 2 * eigvalsh(H)[-1].  `prox(v, step)` is the prox of
    step * penalty.  From `theta`, stops when `residual(theta, gradient)`,
    checked every 10 iterations, is at most `bound` everywhere.  L <= 0 or
    an empty H returns zeros.
    """
    L = 2.0 * float(np.linalg.eigvalsh(H)[-1]) if H.size else 0.0
    if L <= 0:
        return np.zeros(c.size)
    step = 1.0 / L
    z = theta.copy()
    t_acc = 1.0
    for it in range(max_iters):
        theta_new = prox(z - step * (2.0 * (H @ z - c)), step)
        # adaptive restart keeps FISTA monotone enough for the residual check
        if np.dot(z - theta_new, theta_new - theta) > 0:
            z = theta.copy()
            t_acc = 1.0
            theta_new = prox(z - step * (2.0 * (H @ z - c)), step)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = theta_new + ((t_acc - 1.0) / t_new) * (theta_new - theta)
        theta, t_acc = theta_new, t_new
        if it % 10 == 0 and residual(theta, 2.0 * (H @ theta - c)).max(initial=0.0) <= bound:
            break
    return theta


# Sign-pattern corrections `_sign_pattern_solve` makes before `_gram_solve`
# falls back to FISTA.
_SIGN_CORRECTIONS = 8


def _sign_pattern_solve(H, c, theta0, residual, bound, shift, rank_one):
    """The minimizer for a guessed sign pattern, or None.

    Both Gram-form solves minimize theta^T H theta - 2 c^T theta + pen(theta)
    with an L1-type penalty.  On the signs s of theta0, with A its nonzeros
    and theta zero off A, the penalty is rank_one (s^T theta)^2
    + 2 sum_j shift_j s_j theta_j plus a constant: for the lasso
    sum_j lam_j |theta_j|, shift = lam_j / 2 and rank_one = 0; for the refit
    lam (||theta||_1 + 1)^2, shift = lam and rank_one = lam.  The minimizer
    with those signs solves
    (H_AA + rank_one s_A s_A^T) theta_A = c_A - shift_A s_A.
    A candidate whose largest `residual(theta, 2 (H theta - c))` is at most
    `bound` is returned.  This is FISTA's stop rule, read at the
    candidate's own signs, so it certifies the candidate exactly as it
    would certify a FISTA iterate; with a penalty, a candidate whose signs
    on A differ from s fails it.  Otherwise the coordinates whose sign
    flipped leave A, the zero coordinates whose residual exceeds the bound
    join it with the sign of -g_j, and the system is solved again, at most
    `_SIGN_CORRECTIONS` times.  From theta0 = 0 the first system is empty,
    so the first pattern is the coordinates that violate stationarity at 0
    (the active-set method of Osborne, Presnell & Turlach 2000).  A singular
    or non-finite solve, or a correction that leaves A unchanged, returns
    None.
    """
    s = np.sign(np.asarray(theta0, dtype=float))
    for _ in range(_SIGN_CORRECTIONS + 1):
        active = np.flatnonzero(s)
        s_A = s[active]
        K = H[active][:, active]
        if rank_one:
            K += rank_one * np.outer(s_A, s_A)
        theta = np.zeros(c.size)
        try:
            theta[active] = np.linalg.solve(K, c[active] - shift[active] * s_A)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(theta)):
            return None
        g = 2.0 * (H @ theta - c)
        resid = residual(theta, g)
        if resid.max(initial=0.0) <= bound:
            return theta
        flipped = active[np.sign(theta[active]) != s_A]
        violators = np.flatnonzero((theta == 0.0) & (resid > bound))
        if flipped.size == 0 and violators.size == 0:
            return None
        s[flipped] = 0.0
        s[violators] = -np.sign(g[violators])
    return None


def _gram_solve(H, c, theta0, residual, bound, shift, rank_one, prox, max_iters):
    """The Gram-form L1 solve of the refit and the baselines' lasso:
    `_sign_pattern_solve` from theta0, and only when that returns None
    `_fista` from theta0.  Returns (theta, whether FISTA ran)."""
    theta = _sign_pattern_solve(H, c, theta0, residual, bound, shift, rank_one)
    if theta is not None:
        return theta, False
    return _fista(H, c, theta0, prox, residual, bound, max_iters), True


_REFIT_MAX_ITERS = 20000


def _refit_gram(H: np.ndarray, c: np.ndarray, theta: np.ndarray, lam: float,
                tol: float = 1e-8) -> tuple[np.ndarray, bool]:
    """`refit`'s solve: `_gram_solve` from theta on theta^T H theta
    - 2 c^T theta + lam (||theta||_1 + 1)^2, until the absolute residual,
    the scale the dual construction needs, is at most tol.  A FISTA
    fallback that stops at `_REFIT_MAX_ITERS` steps above tol warns.
    Returns (theta, whether FISTA ran).
    """
    def residual(theta, g):
        return 0.5 * _l1_residual(theta, g, 2.0 * lam * (np.abs(theta).sum() + 1.0))

    theta, fista = _gram_solve(H, c, theta, residual, tol, np.full(c.size, lam), lam,
                               lambda v, step: prox_l1_plus_one_squared(v, step * lam),
                               _REFIT_MAX_ITERS)
    resid = residual(theta, 2.0 * (H @ theta - c)).max(initial=0.0) if fista else 0.0
    if not resid <= tol:
        warnings.warn(f"refit stopped after {_REFIT_MAX_ITERS} FISTA steps with "
                      f"stationarity residual {resid:.3g} above tol {tol:.3g}",
                      RuntimeWarning, stacklevel=2)
    return theta, fista


def refit(data: Dataset, selection: np.ndarray, lam: float,
          support: np.ndarray | None = None, tol: float = 1e-8) -> np.ndarray:
    """Penalized least squares on the selected rows.

    The selection is a 0/1 mask or row indices, as `_as_rows` reads it.
    Minimizes sum_selected (y_i - <X_i, theta>)^2 + lam (||theta||_1 + 1)^2
    by `_refit_gram` from theta = 0 on the selected rows' Gram form: the
    exact solve on the sign pattern of the coordinates that violate
    stationarity at 0, with FISTA and the exact prox of the
    squared-plus-linear L1 penalty as the fallback.  With `support`
    (columns, read like the selection), the regression runs on those
    columns only and is zero-padded back to length p.  The answer's
    stationarity residual (subgradient recovered as in the dual
    construction) is at most the absolute tol, unless FISTA stops after
    `_REFIT_MAX_ITERS` iterations, with a RuntimeWarning.  Non-finite X or
    y on the selected rows and columns, or lam, raise ValueError.
    """
    rows = _as_rows(selection, data.n)
    if rows.size < 1:
        raise ValueError("selection must contain at least one sample")
    cols = np.arange(data.p) if support is None else _as_rows(support, data.p, "support")
    Xs = data.X[rows][:, cols]
    ys = data.y[rows]
    _check_finite(("X", Xs), ("y", ys), ("lam", lam))

    theta, _ = _refit_gram(Xs.T @ Xs, Xs.T @ ys, np.zeros(cols.size), lam, tol)
    out = np.zeros(data.p)
    out[cols] = theta
    return out
