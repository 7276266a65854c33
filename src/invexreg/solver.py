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
Driessen 2006).

The C-steps are one loop, `_c_steps`, which the trimmed lasso baseline
also runs with the lasso's penalty (sparse LTS, Alfons, Croux & Gelper
2013).  From 0/1 weights w on the kept rows and theta = 0, each round

- solves the penalized least squares on the kept rows' Gram form
  H = X^T diag(w) X, c = X^T (w y), warm from the last theta
  (`_gram_solve`); with 0/1 weights these are G's blocks, G[:-1, :-1] and
  -G[:-1, -1], so the V block and the refit are one problem,
- keeps the `keep` rows with the smallest |y_i - x_i^T theta|, ties to the
  smallest index (the exact b-step at theta),

and stops when the kept set is the one it solved on: theta is then the
solve on its own kept set, a fixed point.  A kept set seen in an earlier
round is a cycle, and the loop stops there unconverged, as at the round
cap `_MAX_ROUNDS`.  The objective, the kept rows' squared residuals plus
the penalty, does not rise from round to round beyond the solve's
tolerance: the solve lowers it on the kept set and the b-step at the
solved theta.  The loop carries one Gram, `_Gram`, which starts empty:
its first update adds the rows the start weights keep, and each later one
touches only the rows that swapped in or out (`_Gram.at`).  c is formed
directly, one n x p product that cannot drift.  `solve_invex` starts from
the b-step at theta = 0, keeps m rows with the refit's penalty, and
returns the last round's solve as theta_hat, on the kept set it returns.

The refit is exact on a sign pattern.  With the signs s of theta on its
nonzeros A, f(theta) = theta^T H theta - 2 c^T theta
+ lam (||theta||_1 + 1)^2 is the quadratic theta^T (H + lam s s^T) theta
- 2 (c - lam s)^T theta + lam on those coordinates, whose minimizer solves
(H_AA + lam s_A s_A^T) theta_A = c_A - lam s_A.  A warm C-step nearly
always keeps its sign pattern, so `_gram_solve` first solves that system
and corrects the pattern a few times (`_sign_pattern_solve`), and returns
the first candidate that meets the solve's stop rule.  Only when none does,
or a system is singular, does it run `_active_set_solve`, a finite active-set
method (Osborne, Presnell & Turlach 2000) that ends exact.

The dual record.  At z = [theta; 1], with w the refit's subgradient of
||theta||_1 recovered from (G z)[:-1], s = [w; 1], M = G + lam s s^T and
mu = <M, z z^T>, the dual Lambda = M - mu e e^T certifies V* = z z^T when
it is PSD: Lambda z = 0 is the refit's stationarity and s s^T lies in the
subdifferential of ||V*||_1.  <Lambda, z z^T> = 0 up to roundoff, the
complementary slackness.  Lambda is PSD up to the refit's tolerance: M is
PSD and M z = mu e, so (z^T M x)^2 <= (z^T M z)(x^T M x) reads
mu x[-1]^2 <= x^T M x, even when M is singular (m < p + 1).
`_rank_one_dual` is the one construction: `certify.build_duals` runs it
on the support's lifted Gram, and `solve_invex` once, at theta_hat and
the final selection, on G from the blocks the last round formed: H, -c
and y_sel^T y_sel.  It reports min eig(Lambda) / max|Lambda| as
`dual_min_eig`; at or above -1e-9 it certifies that theta_hat's lift
minimizes the V block there.  It can fall below only through the refit's
tolerance, or through roundoff, which warns.

The refit and the baselines' lasso solves are one Gram-form solve,
`_gram_solve`: the corrections first, the completion only when they fail.
They differ only in the penalty's terms, from which the solve derives its
stop rule's residual (`_l1_residual`); the rule itself, one bound for
every caller, is stated in `_gram_solve`.  `grad_vartheta`, the V gradient
sum_i b_i A_i over every row (`model.lifted_gram`), is run by no solve
here; the certificate calls `model.lifted_gram` itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_int, _check_nonneg, lifted_gram
# unused here; the benchmark's traces and tests/test_bench.py look them up on this module
from .model import sample_losses  # noqa: F401
from .projections import project_psd_corner, prox_entrywise_l1  # noqa: F401

__all__ = [
    "InfeasibleM",
    "SolverConfig",
    "SolveResult",
    "grad_vartheta",
    "solve_invex",
    "refit",
]


class InfeasibleM(ValueError):
    """Requested selection size exceeds the number of samples."""


@dataclass(frozen=True)
class SolverConfig:
    """m is an integer >= 1 and lam finite and >= 0, or ValueError names it."""

    m: int
    lam: float

    def __post_init__(self):
        _check_int("m", self.m, 1)
        _check_nonneg("lam", self.lam)


_MAX_ROUNDS = 200   # the C-steps' and a Huber stage's round cap; grid fits need <= 26


@dataclass(eq=False)
class SolveResult:
    b_rounded: np.ndarray
    theta_hat: np.ndarray
    objective_trace: list[float]
    outer_iters: int
    converged: bool
    dual_min_eig: float   # min eig / max|.| of the V block's dual at theta_hat
    config: SolverConfig

    @property
    def selection(self) -> np.ndarray:
        return np.flatnonzero(self.b_rounded > 0.5)


def grad_vartheta(b: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of the smooth part in V: sum_i b_i A_i (`lifted_gram`)."""
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite b")
    return lifted_gram(data.X, data.y, b)


def _rank_one_dual(G: np.ndarray, theta: np.ndarray, lam: float) -> tuple:
    """(Lambda, w, mu, clip_count) of the V block's matrix dual at V* = z z^T,
    z = [theta; 1], w by `_recover_subgradient` (see the module docstring)."""
    z = np.append(theta, 1.0)
    w, clip_count = _recover_subgradient(theta, (G @ z)[:-1], lam)
    s = np.append(w, 1.0)
    Lam = G + lam * np.outer(s, s)
    mu = float((Lam * np.outer(z, z)).sum())
    Lam[-1, -1] -= mu
    return Lam, w, mu, clip_count


def _dual_min_eig(G: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """min eig(Lambda) / max|Lambda| of `_rank_one_dual` (0 when Lambda = 0)."""
    Lam = _rank_one_dual(G, theta, lam)[0]
    scale = float(np.abs(Lam).max())
    return float(np.linalg.eigvalsh(Lam)[0]) / scale if scale > 0.0 else 0.0


def solve_invex(data: Dataset, cfg: SolverConfig) -> SolveResult:
    """C-steps in theta (`_c_steps`) from theta = 0 and its b-step, the m
    smallest |y_i|, with the refit's penalty lam (||theta||_1 + 1)^2, for
    at most `_MAX_ROUNDS` rounds.

    Converged means the kept set reached a fixed point.  The rounded
    selection is the last kept set solved on and theta_hat the solve on
    it.  The trace holds the objective at theta = 0 and after each round.
    """
    if cfg.m > data.n:
        raise InfeasibleM(f"m={cfg.m} exceeds n={data.n}")
    lam, y = cfg.lam, data.y
    theta_hat, b, H, c, outer, converged, trace = _c_steps(
        data.X, y, _keep_smallest(y, cfg.m), cfg.m, np.full(data.p, lam), lam)
    G = np.block([[H, -c[:, None]], [-c, b @ (y * y)]])
    return SolveResult(
        b_rounded=b, theta_hat=theta_hat, objective_trace=trace,
        outer_iters=outer, converged=converged,
        dual_min_eig=_dual_min_eig(G, theta_hat, lam), config=cfg,
    )


class _Gram:
    """A fit's Gram, carried from solve to solve: H = X^T diag(w) X and the
    0/1 sample weights w it was last formed at, from H = 0 at w = 0."""

    def __init__(self, X):
        self.X = X
        self.H, self.w = np.zeros((X.shape[1],) * 2), np.zeros(X.shape[0])

    def at(self, w):
        """H at the 0/1 weights w, updated in place.

        Only the rows D whose weight differs from the stored w are touched:
        with A = X[D], the rows that dropped out are downdated, H - A^T A,
        and those that joined updated, H + A^T A, so the first call forms H
        from the rows w keeps.  A product of a matrix with its own transpose
        keeps an exactly symmetric H exactly symmetric: `eigvalsh` reads one
        triangle of it and `np.linalg.solve` reads both.  The Gram then
        stands at w.  With no weight changed H is returned as it is.
        """
        d = self.w - w
        for D in (np.flatnonzero(d > 0), np.flatnonzero(d < 0)):
            if D.size:
                A = self.X[D]
                self.H = self.H - A.T @ A if d[D[0]] > 0 else self.H + A.T @ A
        self.w = w
        return self.H


def _keep_smallest(r, keep):
    """0/1 weights on the `keep` entries of r smallest in absolute value,
    ties to the smallest index (a stable sort)."""
    w = np.zeros(r.size)
    w[np.argsort(np.abs(r), kind="stable")[:keep]] = 1.0
    return w


def _penalty(theta, shift, rank_one):
    """rank_one (||theta||_1^2 + 1) + 2 shift^T |theta|, the penalty of
    `_sign_pattern_solve`'s terms with its constant: the refit's
    lam (||theta||_1 + 1)^2 at shift = rank_one = lam, the lasso's
    sum_j lam_j |theta_j| at shift = lam_j / 2 and rank_one = 0."""
    a = np.abs(theta)
    return float(rank_one * (a.sum() ** 2 + 1.0) + 2.0 * (shift @ a))


def _c_steps(X, y, w, keep, shift, rank_one):
    """C-steps from the 0/1 weights w and theta = 0, at most `_MAX_ROUNDS`
    rounds.

    Each round solves the Gram form of the rows w keeps, H = X^T diag(w) X
    and c = X^T (w y), by `_gram_solve`, warm from the previous round's
    theta, with the penalty terms shift and rank_one, and then keeps the
    `keep` rows of smallest |y - X theta| (`_keep_smallest`).
    It stops when the new kept set is w, a fixed point, or one kept in an
    earlier round, a cycle.  One `_Gram` is carried: its first round adds
    the rows the start weights keep, and each later one the rows that swap.
    Returns (theta, w, H, c, rounds, fixed, objectives): the last solve, the
    weights and Gram form it solved on, the rounds run, whether w is a fixed
    point, and the objective, the squared residuals the weights keep plus
    `_penalty`, at theta = 0 and after each round's b-step.
    """
    gram, theta = _Gram(X), np.zeros(X.shape[1])
    objectives = [float(w @ (y * y)) + _penalty(theta, shift, rank_one)]
    seen, w_next = {w.tobytes()}, w
    for rounds in range(1, _MAX_ROUNDS + 1):
        w = w_next
        H, c = gram.at(w), X.T @ (w * y)
        theta = _gram_solve(H, c, theta, shift, rank_one)
        r = y - X @ theta
        w_next = _keep_smallest(r, keep)
        objectives.append(float(w_next @ (r * r)) + _penalty(theta, shift, rank_one))
        fixed = np.array_equal(w_next, w)
        if fixed or w_next.tobytes() in seen:
            break
        seen.add(w_next.tobytes())
    return theta, w, H, c, rounds, fixed, objectives


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
    if lam > 0:
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


def _l1_residual(H, c, theta, shift, rank_one):
    """g = 2 (H theta - c) and the stationarity residual at theta of the
    Gram-form problem with penalty terms shift and rank_one
    (`_sign_pattern_solve`), whose subgradient weights are
    tau = 2 (shift + rank_one ||theta||_1): |g_j + tau_j sign(theta_j)| on
    the nonzeros and max(|g_j| - tau_j, 0) on the zeros."""
    g = 2.0 * (H @ theta - c)
    tau = 2.0 * (shift + rank_one * np.abs(theta).sum())
    return g, np.where(theta != 0.0, np.abs(g + tau * np.sign(theta)),
                       np.maximum(np.abs(g) - tau, 0.0))


# Sign-pattern corrections `_sign_pattern_solve` makes before the completion.
_SIGN_CORRECTIONS = 8


def _pattern_system(H, c, s, idx, shift, rank_one):
    """K = H_II + rank_one s_I s_I^T and c_I - shift_I s_I, I = idx: the
    system of the minimizer on the sign pattern s (`_sign_pattern_solve`)."""
    s_I = s[idx]
    # H[idx][:, idx] is about 3x faster than H[np.ix_(idx, idx)]; the `if` skips a zero outer
    K = H[idx][:, idx]
    if rank_one:
        K += rank_one * np.outer(s_I, s_I)
    return K, c[idx] - shift[idx] * s_I


def _sign_pattern_solve(H, c, theta0, bound, shift, rank_one):
    """The minimizer for a guessed sign pattern, or None.

    Both Gram-form solves minimize theta^T H theta - 2 c^T theta + pen(theta)
    with an L1-type penalty.  On the signs s of theta0, with A its nonzeros
    and theta zero off A, the penalty is rank_one (s^T theta)^2
    + 2 sum_j shift_j s_j theta_j plus a constant: for the lasso
    sum_j lam_j |theta_j|, shift = lam_j / 2 and rank_one = 0; for the refit
    lam (||theta||_1 + 1)^2, shift = lam and rank_one = lam.  The minimizer
    with those signs solves
    (H_AA + rank_one s_A s_A^T) theta_A = c_A - shift_A s_A.
    A candidate whose largest `_l1_residual` is at most `bound` is returned:
    the stop rule of `_gram_solve`, derived from the same shift and
    rank_one and read at the candidate's own signs; with a penalty, a
    candidate whose signs on A differ from s fails it.
    Otherwise the coordinates whose sign flipped leave A, the zero
    coordinates whose residual exceeds the bound join it with the sign of
    -g_j, and the system is solved again, at most `_SIGN_CORRECTIONS`
    times.  From theta0 = 0 the first system is empty, so the first pattern
    is the coordinates that violate stationarity at 0.
    A singular or non-finite solve, or a correction that leaves A unchanged,
    returns None.
    """
    s = np.sign(np.asarray(theta0, dtype=float))
    for _ in range(_SIGN_CORRECTIONS + 1):
        active = np.flatnonzero(s)
        s_A = s[active]
        K, rhs = _pattern_system(H, c, s, active, shift, rank_one)
        theta = np.zeros(c.size)
        try:
            theta[active] = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(theta)):
            return None
        g, resid = _l1_residual(H, c, theta, shift, rank_one)
        if resid.max(initial=0.0) <= bound:
            return theta
        flipped = active[np.sign(theta[active]) != s_A]
        violators = np.flatnonzero((theta == 0.0) & (resid > bound))
        if flipped.size == 0 and violators.size == 0:
            return None
        s[flipped] = 0.0
        s[violators] = -np.sign(g[violators])
    return None


def _active_set_solve(H, c, bound, shift, rank_one):
    """The completion: the problem of `_sign_pattern_solve` by a finite
    primal active-set method from theta = 0 (Osborne, Presnell & Turlach
    2000), adding one coordinate at a time as LARS does (Efron, Hastie,
    Johnstone & Tibshirani 2004).

    theta is zero off A and has the signs s_A on A, where f is the convex
    quadratic q_s with matrix K_A = H_AA + rank_one s_A s_A^T, kept positive
    definite.  A round starts at the minimizer of q_s (at first theta = 0)
    and returns it if it meets the stop rule.  Otherwise the zero coordinate
    j with the largest residual joins A with the sign of -g_j, so q falls
    along s_j e_j.  If j's Schur complement K_jj - k_j^T K_A^-1 k_j is zero
    up to roundoff, q falls linearly along the null direction
    s_j (-K_A^-1 k_j, 1), and as f is bounded below theta moves along it to
    the first coordinate that reaches zero, which drops; its weight there
    is nonzero, so the system is positive definite again.  (At lam = 0 a
    violator's column is independent of the active ones.)  Then each step
    solves K_A theta_A = c_A - shift_A s_A; if a coordinate would change
    sign on the way, theta stops where the first one reaches zero and it
    drops, else the full step ends the round.

    Termination: each move starts inside the orthant of s and stays in its
    closure, where f = q_s, so it lowers f strictly.  Each round ends at a
    pattern's unique minimizer, lower than all earlier ones, so no pattern
    comes back; patterns are finite and a round drops at most |A| times.
    In floating point a pattern that comes back, a residual above the bound
    on active coordinates alone, or a null direction along which nothing
    reaches zero comes only from roundoff: the solve warns, naming the
    residual, and returns theta.
    """
    theta, s, seen = np.zeros(c.size), np.zeros(c.size), set()
    while True:
        g, resid = _l1_residual(H, c, theta, shift, rank_one)
        if resid.max(initial=0.0) <= bound:
            return theta
        free = np.where(s == 0.0, resid, 0.0)
        j = int(np.argmax(free))
        if free[j] <= bound or s.tobytes() in seen:
            break
        seen.add(s.tobytes())
        active = np.flatnonzero(s)
        s[j] = -np.sign(g[j])
        K, _ = _pattern_system(H, c, s, np.append(active, j), shift, rank_one)
        k_j, K_jj = K[:-1, -1], K[-1, -1]
        v = np.linalg.solve(K[:-1, :-1], k_j)
        if K_jj - k_j @ v <= 1e-12 * (K_jj + np.abs(k_j) @ np.abs(v)):
            u = -s[j] * v   # the null direction on A; on j it is s_j
            hit = np.flatnonzero(s[active] * u < 0.0)
            if hit.size == 0:
                break
            tau = -theta[active[hit]] / u[hit]
            i = int(np.argmin(tau))
            theta[active] += tau[i] * u
            theta[j] = tau[i] * s[j]
            theta[active[hit[i]]] = 0.0
            s = np.sign(theta)
        while True:
            active = np.flatnonzero(s)
            target = np.linalg.solve(*_pattern_system(H, c, s, active, shift, rank_one))
            cross = np.flatnonzero(s[active] * target < 0.0)
            if cross.size == 0:
                theta[active] = target
                s = np.sign(theta)
                break
            now = theta[active[cross]]
            t = now / (now - target[cross])
            i = int(np.argmin(t))
            theta[active] += t[i] * (target - theta[active])
            theta[active[cross[i]]] = 0.0
            s = np.sign(theta)
    warnings.warn(f"the l1 solve stopped with stationarity residual "
                  f"{resid.max():.3g} above the bound {bound:.3g}",
                  RuntimeWarning, stacklevel=3)
    return theta


# The stop bound of every Gram-form solve, on the full gradient 2 (H theta - c)
_BOUND = 2e-10
# Its floating-point floor, per unit of ||c||_inf
_ROUNDOFF = 8.0 * np.finfo(float).eps


def _gram_solve(H, c, theta0, shift, rank_one):
    """The Gram-form L1 solve of the refit and the baselines' lasso:
    `_sign_pattern_solve` from theta0, and only when that returns None the
    completion, `_active_set_solve`.

    The stop rule is the same for every caller: the answer's largest
    `_l1_residual` is at most max(_BOUND, _ROUNDOFF * ||c||_inf).  The
    second term is the gradient's roundoff, which a gross outlier in y can
    lift above _BOUND.  Only roundoff can keep the residual above that,
    and then the completion warns, naming it."""
    bound = max(_BOUND, _ROUNDOFF * np.abs(c).max(initial=0.0))
    theta = _sign_pattern_solve(H, c, theta0, bound, shift, rank_one)
    if theta is None:
        theta = _active_set_solve(H, c, bound, shift, rank_one)
    return theta


def refit(data: Dataset, selection: np.ndarray, lam: float,
          support: np.ndarray | None = None) -> np.ndarray:
    """Penalized least squares on the selected rows.

    The selection is a 0/1 mask or row indices, as `_as_rows` reads it.
    Minimizes sum_selected (y_i - <X_i, theta>)^2 + lam (||theta||_1 + 1)^2
    by `_gram_solve` from theta = 0 on the selected rows' Gram form, with
    shift and rank-one term lam: the exact solve on the sign pattern of the
    coordinates that violate stationarity at 0, and the finite active-set
    completion when a few corrections of that pattern do not reach the
    minimizer.  With `support` (columns, read like the selection), the
    regression runs on those columns only and is zero-padded back to
    length p.  A negative or non-finite lam raises ValueError.
    """
    rows = _as_rows(selection, data.n)
    if rows.size < 1:
        raise ValueError("selection must contain at least one sample")
    cols = np.arange(data.p) if support is None else _as_rows(support, data.p, "support")
    Xs = data.X[rows][:, cols]
    ys = data.y[rows]
    _check_nonneg("lam", lam)

    theta = _gram_solve(Xs.T @ Xs, Xs.T @ ys, np.zeros(cols.size),
                        np.full(cols.size, lam), lam)
    out = np.zeros(data.p)
    out[cols] = theta
    return out
