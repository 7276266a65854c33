"""Solver for the lifted relaxation and the selected-subset refit.

The relaxation is minimized by block steps.  The selection weights b have a
closed-form minimizer for fixed V (pick the m smallest lifted losses).  For
fixed b the V block, minimize <G, V> + lam ||V||_1 over PSD V with
V[-1, -1] = 1 and G = sum_i b_i A_i, is convex, and each outer round first
solves it exactly (Burer & Monteiro 2003, a rank-one factor; the alternation
is then the C-step of Rousseeuw & Van Driessen 2006).  The refit's solve on
G's blocks (the Gram form of the rows b weights), warm-started from
V[:-1, -1], gives theta; at V* = z z^T with z = [theta; 1] the block
objective is the refit's objective.  With w the refit's subgradient of
||theta||_1, s = [w; 1] and mu = (G z)[-1] + lam s^T z, the dual
Lambda = G + lam s s^T - mu e e^T certifies V* when it is PSD: Lambda z = 0
is the refit's stationarity and s s^T lies in the subdifferential of
||V*||_1, so Lambda PSD is the block's KKT condition.

It is PSD up to the refit's tolerance: M = G + lam s s^T is PSD and
M z = mu e, so (z^T M x)^2 <= (z^T M z)(x^T M x) reads mu x[-1]^2 <= x^T M x,
which is Lambda = M - mu e e^T PSD, even when M is singular (m < p + 1).
The check can fail only through the refit's tolerance or iteration cap,
and only then does the round run the lifted fallback below.  A certified
V* replaces V when it scores lower; otherwise V is already optimal to the
refit's tolerance and the round takes no step.  An objective re-check
after the b-step keeps the trace monotone.  The reported parameter
estimate always comes from refitting on the final selection, warm-started
from the last exact step's theta.

The refit and the baselines' lasso solves share one FISTA loop, `_fista`,
on the Gram form; they differ only in the prox and the stopping residual
they pass.  The V gradient sum_i b_i A_i is `model.lifted_gram`, which the
dual certificate also uses.

The fallback round, `_lifted_round`, drives V by proximal gradient steps
followed by a feasibility repair onto the PSD-with-corner set.  Four rules
keep it from paying for work that cannot move the iterate.  The first may
drop eigenvalues below a roundoff bound relative to the largest entry of
the clipped matrix, but never changes whether a renormalized candidate
exists; the others move the objective by roundoff.

- The PSD clip of each prox step is rank one in practice (the lift of theta
  is [theta; 1][theta; 1]^T), so `_psd_clip` finds the top eigenpair by a
  Rayleigh-quotient iteration warm-started from the previous clip's
  eigenvector and certifies with one Cholesky factorization that no other
  eigenvalue exceeds that bound.  The top eigenvalue dominates, so one
  power step S u / ||S u|| first (when u^T S u > 0) lets the iteration stop
  after one LU solve, not two.  Only an uncertified matrix, or one smaller
  than 20 x 20, where `eigh` is cheaper, pays for a full `eigh`.
- Within an outer round the far-step probe runs only until it first fails
  to beat the current objective.  Its step is at least 1e6, so with G fixed
  its renormalized point depends on V only through O(1/step) terms, and the
  objective it must beat only falls within a round.
- A PSD clip P whose corner c is at most 1 pins to P + (1 - c) e e^T,
  which is PSD by construction, so it is taken as is with no Cholesky test
  (the bits `project_psd_corner` returns once that test passes).  Only
  c > 1, where pinning lowers the corner, goes through the repair.
- G, V, the soft threshold of V - t G, mu u u^T and its multiples are
  exactly symmetric, and `_eigh_clip` symmetrizes once, so nothing else
  is.  F(M) = <G, M> + lam ||M||_1 is positively homogeneous and the clip's
  corner c is nonnegative, so only the clip P is scored: P / c scores
  F(P) / c, and pinning c <= 1 scores F(P) + (1 - c)(G[-1, -1] + lam).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, _check_finite, _check_int, _check_nonneg, extract_theta,
                    lift_parameter, lifted_gram, sample_losses)
from .projections import project_psd_corner, prox_entrywise_l1

__all__ = [
    "InfeasibleM",
    "NonFinite",
    "SolverConfig",
    "SolveResult",
    "grad_vartheta",
    "b_step",
    "solve_invex",
    "refit",
    "prox_l1_plus_one_squared",
]


class InfeasibleM(ValueError):
    """Requested selection size exceeds the number of samples."""


class NonFinite(RuntimeError):
    """Objective or V-step matrix became non-finite."""


@dataclass(frozen=True)
class SolverConfig:
    """m and max_outer are integers >= 1, lam and tol_obj finite and >= 0,
    or ValueError names the field.  The V step's step size is not settable:
    it starts at the 1/L bound and adapts by backtracking."""

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
    b_hat: np.ndarray
    b_rounded: np.ndarray
    vartheta_hat: np.ndarray
    theta_hat: np.ndarray
    rank1_gap: float
    objective_trace: list[float]
    outer_iters: int
    converged: bool
    v_step_fallbacks: int   # outer rounds whose dual check failed: lifted rounds
    config: SolverConfig | None = None

    @property
    def selection(self) -> np.ndarray:
        return np.flatnonzero(self.b_rounded > 0.5)


def grad_vartheta(b: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of the smooth part in V: sum_i b_i A_i (`lifted_gram`)."""
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite b")
    return lifted_gram(data.X, data.y, b)


def _select(losses: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """b-step on given lifted losses: (weights, top-m indices).

    The m smallest losses get weight one, ties resolved by smallest index;
    any further strictly negative losses (possible only through PSD
    tolerance slack) also get weight one since the sum constraint is
    one-sided.  The indices are the top-m set alone, sorted.
    """
    sel = np.sort(np.argsort(losses, kind="stable")[:m])
    b = np.zeros(losses.size)
    b[sel] = 1.0
    b[losses < 0.0] = 1.0
    return b, sel


def b_step(V: np.ndarray, data: Dataset, m: int) -> np.ndarray:
    """Exact minimizer of sum_i b_i <A_i, V> over the weight polytope.

    The weights follow `_select`'s rule: the m smallest lifted losses plus
    any strictly negative ones.
    """
    if m > data.n:
        raise InfeasibleM(f"m={m} exceeds n={data.n}")
    return _select(sample_losses(data.X, data.y, V), m)[0]


# The V step's line search and clip tolerance are constants, not SolverConfig
# fields, because no caller needs other values.
_MAX_INNER = 25    # accepted prox steps per outer round
_BETA = 0.5        # backtracking shrink factor
_ARMIJO_C = 1e-4   # sufficient-decrease fraction of the Armijo test
_PSD_TOL = 1e-9    # clipped corner at or below which renormalization is skipped


def _pin_corner(P: np.ndarray) -> np.ndarray:
    """Feasible corner-pinned point from a symmetric PSD clip P: pinned
    directly when its corner is at most 1 (see the module docstring), else,
    or when P is not finite (which raises there), by `project_psd_corner`."""
    if P[-1, -1] <= 1.0 and np.isfinite(P).all():
        Q = P.copy()
        Q[-1, -1] = 1.0
        return Q
    return project_psd_corner(P)


# Below this size one eigh costs less than the kernel's solves and
# factorization (measured crossover: p+1 between 20 and 24).
_PSD_CLIP_MIN_DIM = 20


def _eigh_clip(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, U = np.linalg.eigh(S)
    pos = w > 0.0
    Up = U[:, pos]
    P = (Up * w[pos]) @ Up.T
    return 0.5 * (P + P.T), U[:, -1]


def _psd_clip(S: np.ndarray, u: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """PSD clip of a symmetric S, and a top eigenvector of S for the next call.

    The clip is sum over positive eigenpairs of w v v^T, exactly symmetric.
    `u` is a unit warm start for the top eigenvector.  One power step (when
    u^T S u > 0), then up to four Rayleigh-quotient steps refine it until
    ||S u - mu u|| <= 1e-12 max|S|, with mu = u^T S u.  The
    clip is mu u u^T once a Cholesky factorization of
    2 mu u u^T - S + delta I succeeds, with delta = 1e-13 (p+1) max|S|:
    then every vector orthogonal to u has Rayleigh quotient below delta, so
    every other eigenvalue is below delta (Courant-Fischer) and the mass
    the clip drops has a corner below delta, up to the roundoff left in u.
    The certificate is tried only when mu > 0 and the corner
    c = mu u[-1]^2 is farther than (p+1) delta from `tol`, so that the
    dropped mass cannot decide whether the clip's corner exceeds `tol`
    (whether a renormalized candidate exists).

    Anything else (a matrix smaller than `_PSD_CLIP_MIN_DIM`, mu <= 0, a
    corner near `tol`, a singular or non-finite solve, no convergence, a
    failed certificate) clips from the positive eigenpairs of `eigh`.
    """
    scale = float(np.abs(S).max())
    if not np.isfinite(scale):
        raise NonFinite("non-finite matrix in the V step")
    n = S.shape[0]
    if n < _PSD_CLIP_MIN_DIM:
        return _eigh_clip(S)
    delta = 1e-13 * n * scale
    Su = S @ u
    if u @ Su > 0.0:
        u = Su / math.sqrt(Su @ Su)
    A = S.copy()
    shifted = A.reshape(-1)[:: n + 1]  # view: the diagonal of A = S - mu I
    for k in range(5):
        Su = S @ u
        mu = float(u @ Su)
        r = Su - mu * u
        if math.sqrt(r @ r) <= 1e-12 * scale:
            if mu <= 0.0 or abs(mu * u[-1] ** 2 - tol) <= n * delta:
                break
            P = mu * np.outer(u, u)
            T = 2.0 * P - S
            T.reshape(-1)[:: n + 1] += delta
            try:
                np.linalg.cholesky(T)
            except np.linalg.LinAlgError:
                break
            return P, u
        if k == 4:
            break
        np.subtract(S.diagonal(), mu, out=shifted)
        try:
            x = np.linalg.solve(A, u)
        except np.linalg.LinAlgError:
            break
        xx = float(x @ x)
        if not 0.0 < xx < math.inf:  # also false for nan
            break
        u = x / math.sqrt(xx)
    return _eigh_clip(S)


def _initial_eta(G: np.ndarray, lam: float) -> float:
    gmax = float(np.linalg.eigvalsh(G)[-1]) if G.size else 1.0
    return 1.0 / (gmax + lam + 1e-12)


def _block_objective(G: np.ndarray, M: np.ndarray, lam: float) -> float:
    """F(M) = <G, M> + lam ||M||_1, the V block's objective at fixed b; it
    costs O(p^2) where the sample form costs O(n p^2)."""
    v = float(np.vdot(G, M) + lam * np.abs(M).sum())
    if not np.isfinite(v):
        raise NonFinite("objective diverged in the V step")
    return v


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


_DUAL_PSD_TOL = 1e-9   # min eig(Lambda) >= -tol max|Lambda| certifies V*


def _exact_v_step(G: np.ndarray, theta0: np.ndarray, lam: float) -> np.ndarray | None:
    """theta of the rank-one minimizer of the V block <G, V> + lam ||V||_1,
    or None when its dual is not PSD.  The refit runs from theta0 on G's
    blocks: with 0/1 weights b, G[:-1, :-1] = X_b^T X_b and
    -G[:-1, -1] = X_b^T y_b, so block and refit are one problem."""
    theta = _refit_gram(G[:-1, :-1], -G[:-1, -1], theta0, lam)
    Lam = _rank_one_dual(G, theta, lam)
    if np.linalg.eigvalsh(Lam)[0] < -_DUAL_PSD_TOL * np.abs(Lam).max():
        return None
    return theta


def _lifted_round(G: np.ndarray, V: np.ndarray, lam: float, eta: float,
                  u_top: np.ndarray, tol_obj: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The fallback V step: up to `_MAX_INNER` accepted proximal projected-
    gradient steps on the block from V, each backtracked from `eta` by an
    Armijo test, plus the far-step probe.  Returns (V, the next round's
    eta, the next clip's warm start)."""
    def score(M):
        return _block_objective(G, M, lam)

    cur = score(V)

    def best_repair(step, pocs):
        """Feasible candidates from one prox step: corner renormalization
        of the PSD clip, plus the corner-pinned clip when `pocs`.  The
        clip comes from `_psd_clip`: mu u u^T once a Cholesky test
        certifies that the top eigenpair (mu, u) is the only eigenpair
        above a roundoff bound, else the positive eigenpairs of `eigh`;
        u warm-starts the next clip.  A non-finite prox output raises
        NonFinite there.  Pinning a clipped corner c <= 1 adds
        (1 - c) e e^T and stays PSD, so it needs no Cholesky test; only
        c > 1 runs the alternating repair (`_pin_corner`).  Only P and a
        repaired pin are scored (see the module docstring).
        Returns None when no candidate exists (renormalization-only call
        on a matrix whose clipped corner vanishes).
        """
        nonlocal u_top
        Z = prox_entrywise_l1(V - step * G, step * lam)  # exactly symmetric
        P, u_top = _psd_clip(Z, u_top, _PSD_TOL)
        cands = []
        c = P[-1, -1]
        fP = score(P)
        if c > _PSD_TOL:
            cands.append((fP / c, P / c))  # corner c / c == 1
        if pocs:
            Q = _pin_corner(P)
            fQ = fP + (1.0 - c) * (G[-1, -1] + lam) if c <= 1.0 else score(Q)
            cands.append((fQ, Q))
        if not cands:
            return None
        return min(cands, key=lambda t: t[0])

    probe_live = True
    for _ in range(_MAX_INNER):
        step = eta
        accepted = None
        for _ in range(60):
            cand, Vn = best_repair(step, pocs=True)
            D = Vn - V
            nd = float(np.vdot(D, D))
            if cand <= cur - _ARMIJO_C * nd / max(step, 1e-300):
                accepted = (cand, Vn, step)
                break
            step *= _BETA
            if step < 1e-18 * max(eta, 1.0):
                break
        # far-step probe (cheap repair only): with a singular smooth part
        # the minimizer sits along the gradient's null ray, which only an
        # effectively infinite step can reach.  Once it loses it is not
        # tried again this round (see the module docstring).
        if probe_live:
            probe = best_repair(1e6 * max(eta, 1.0), pocs=False)
            probe_live = probe is not None and probe[0] < cur
            if probe_live and (accepted is None or probe[0] < accepted[0]):
                accepted = (probe[0], probe[1], eta)
        if accepted is None:
            break
        improvement = cur - accepted[0]
        cur, V = accepted[0], accepted[1]
        eta = min(accepted[2] * 2.0, 1e12)
        if improvement <= 0.1 * tol_obj * max(abs(cur), 1.0):
            break
    return V, eta, u_top


def solve_invex(data: Dataset, cfg: SolverConfig) -> SolveResult:
    """Alternate the exact b-step with V steps: the exact rank-one step, or
    the lifted round when its dual check fails.

    Stops when the relative objective decrease over an outer round falls
    below tol_obj.  The rounded selection is the final b-step's top-m set
    and theta_hat is the refit on that selection.
    """
    if cfg.m > data.n:
        raise InfeasibleM(f"m={cfg.m} exceeds n={data.n}")
    lam = cfg.lam
    X, y = data.X, data.y

    V = lift_parameter(np.zeros(data.p))

    losses = sample_losses(X, y, V)
    b, sel = _select(losses, cfg.m)

    def full_obj(bvec, Vm, lvec):
        return float(bvec @ lvec + lam * np.abs(Vm).sum())

    obj = full_obj(b, V, losses)
    if not np.isfinite(obj):
        raise NonFinite("objective not finite at initialization")
    trace = [obj]

    u_top = np.zeros(data.p + 1)  # warm start of _psd_clip: V = e e^T at theta = 0
    u_top[-1] = 1.0
    eta = None
    fallbacks = 0
    converged = False
    outer = 0
    for outer in range(1, cfg.max_outer + 1):
        G = grad_vartheta(b, data)
        theta = _exact_v_step(G, V[:-1, -1], lam)
        if theta is not None:
            # certified: V* minimizes the block, so a V that scores no
            # higher is already optimal to the refit's tolerance
            Vs = lift_parameter(theta)
            if _block_objective(G, Vs, lam) < _block_objective(G, V, lam):
                V = Vs
        else:
            fallbacks += 1
            if eta is None:
                eta = _initial_eta(G, lam)
            V, eta, u_top = _lifted_round(G, V, lam, eta, u_top, cfg.tol_obj)

        losses = sample_losses(X, y, V)
        b, sel = _select(losses, cfg.m)
        new_obj = full_obj(b, V, losses)
        if not np.isfinite(new_obj):
            raise NonFinite("objective diverged")
        # guard against samplewise/lifted-gradient round-off disagreement
        new_obj = min(new_obj, trace[-1])
        trace.append(new_obj)
        if trace[-2] - new_obj <= cfg.tol_obj * abs(trace[-2]) + 1e-12:
            converged = True
            break

    b_rounded = np.zeros(data.n)
    b_rounded[sel] = 1.0
    # warm from the last exact step's theta, which usually solved this refit
    theta_hat = refit(data, b_rounded, lam, theta0=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, rank1_gap = extract_theta(V)
    return SolveResult(
        b_hat=b, b_rounded=b_rounded, vartheta_hat=V,
        theta_hat=theta_hat, rank1_gap=rank1_gap, objective_trace=trace,
        outer_iters=outer, converged=converged, v_step_fallbacks=fallbacks,
        config=cfg,
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


def _fista(H, c, theta, prox, converged, max_iters):
    """FISTA with adaptive restart (Beck & Teboulle 2009) on the Gram form
    theta^T H theta - 2 c^T theta + penalty, H = X^T X, c = X^T y (Friedman,
    Hastie & Tibshirani 2010): the gradient is 2 (H z - c) and the step 1/L
    with L = 2 * eigvalsh(H)[-1].  `prox(v, step)` is the prox of
    step * penalty.  From `theta`, stops when `converged(theta, gradient)`,
    checked every 10 iterations, is true.  L <= 0 or an empty H returns zeros.
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
        if it % 10 == 0 and converged(theta, 2.0 * (H @ theta - c)):
            break
    return theta


_REFIT_MAX_ITERS = 20000


def _refit_gram(H: np.ndarray, c: np.ndarray, theta: np.ndarray, lam: float,
                tol: float = 1e-8) -> np.ndarray:
    """`refit`'s solve on the Gram form: minimizes theta^T H theta
    - 2 c^T theta + lam (||theta||_1 + 1)^2 by `_fista` from theta, until
    the stationarity residual is below the absolute tol."""
    def converged(theta, g):
        w, _ = _recover_subgradient(theta, 0.5 * g, lam)
        # absolute: the dual construction needs this scale
        resid = 0.5 * g + lam * (np.abs(theta).sum() + 1.0) * w
        return np.abs(resid).max(initial=0.0) <= tol

    return _fista(H, c, theta, lambda v, step: prox_l1_plus_one_squared(v, step * lam),
                  converged, _REFIT_MAX_ITERS)


def refit(data: Dataset, selection: np.ndarray, lam: float,
          support: np.ndarray | None = None, theta0: np.ndarray | None = None,
          tol: float = 1e-8) -> np.ndarray:
    """Penalized least squares on the selected rows.

    The selection is a 0/1 mask or row indices, as `_as_rows` reads it.
    Minimizes sum_selected (y_i - <X_i, theta>)^2 + lam (||theta||_1 + 1)^2
    by `_fista` with the exact prox of the squared-plus-linear L1 penalty.
    With `support` (columns, read like the selection), the regression runs
    on those columns only and is zero-padded back to length p.  Stops when
    the stationarity residual (subgradient recovered as in the dual
    construction) is below the absolute tol, or after `_REFIT_MAX_ITERS`
    iterations.  Non-finite X or y on the selected rows and columns, theta0
    or lam raise ValueError.
    """
    rows = _as_rows(selection, data.n)
    if rows.size < 1:
        raise ValueError("selection must contain at least one sample")
    cols = np.arange(data.p) if support is None else _as_rows(support, data.p, "support")
    Xs = data.X[rows][:, cols]
    ys = data.y[rows]
    _check_finite(("X", Xs), ("y", ys), ("theta0", theta0), ("lam", lam))
    theta = np.zeros(cols.size) if theta0 is None else np.asarray(theta0, dtype=float)
    if theta.shape != (cols.size,):
        raise ValueError("theta0 has wrong length")

    theta = _refit_gram(Xs.T @ Xs, Xs.T @ ys, theta, lam, tol)
    out = np.zeros(data.p)
    out[cols] = theta
    return out
