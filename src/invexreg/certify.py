"""Dual certificate construction and numerical optimality checks.

Given a primal candidate (selection + support-restricted parameter), build
the dual variables in closed form, evaluate every KKT residual for the
support-compacted relaxation, inspect the spectrum of the matrix dual, and
run the finite-sample assumption and strict-dual-feasibility diagnostics.
The certificate is a numerical check on one instance, not a proof; the
one verdict built from it is `bench.certify_at_true_support`.

Supports are column indices, read like selections by `solver._as_rows`, so
a negative or out-of-range column raises ValueError instead of wrapping
round or failing with an IndexError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLEAN, Dataset, _check_nonneg, lift_parameter, lifted_gram, sample_losses
from .projections import BFeasibleSet, project_b
from .solver import _as_rows, _rank_one_dual, _recover_subgradient

__all__ = [
    "EmptySupport",
    "SingularSubmatrix",
    "RejectionExhausted",
    "AllZeroColumn",
    "DualCertificate",
    "KKTReport",
    "AssumptionReport",
    "build_duals",
    "kkt_residuals",
    "assumption_check",
    "strict_dual_feasibility",
    "invexity_gap",
    "invexity_witness",
    "nonconvexity_witness",
]

_TOL = 1e-8   # slack allowed on every dual and primal feasibility inequality


class EmptySupport(ValueError):
    """Support set is empty while the regularizer is active."""


class SingularSubmatrix(np.linalg.LinAlgError):
    """The on-support empirical covariance block is not invertible."""


class RejectionExhausted(RuntimeError):
    """Could not sample feasible pairs with bounded lifted losses."""


class AllZeroColumn(ValueError):
    """Every predictor column is zero; the witness construction needs one."""


@dataclass(eq=False)
class DualCertificate:
    nu: float
    nu_interval: tuple[float, float]
    beta: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray
    mu_corner: float
    zeta: np.ndarray
    omega: np.ndarray
    feasible: bool
    omega_clip_count: int = 0


@dataclass(eq=False)
class KKTReport:
    stationarity_b_max: float
    stationarity_vartheta_norm: float
    comp_slack_max: float
    dual_feas_min_eig: float
    nullvec_residual: float
    second_eig: float
    primal_feas_ok: bool


@dataclass(eq=False)
class AssumptionReport:
    support: np.ndarray
    min_eig_SS: float
    max_eig_SS: float
    incoherence: float
    kappa_implied: float
    alpha1: float
    alpha2: float
    pass_min_eig: bool
    pass_max_eig: bool
    pass_incoherence: bool


def build_duals(data: Dataset, selection: np.ndarray, theta_under: np.ndarray,
                lam: float, support: np.ndarray) -> DualCertificate:
    """Closed-form dual variables for a candidate (selection, parameter) pair.

    The scalar dual sits at the midpoint of its feasibility interval
    [max selected lifted loss, min unselected lifted loss]; the box duals
    absorb the per-sample slack.  The matrix dual is `solver._rank_one_dual`
    on the support's lifted Gram, zeta = [omega; 1][omega; 1]^T and
    mu_corner = -mu.  A negative or non-finite lam raises ValueError.
    """
    _check_nonneg("lam", lam)
    support = _as_rows(support, data.p, "support")
    if support.size == 0 and lam > 0:
        raise EmptySupport("empty support with an active regularizer")
    theta_under = np.asarray(theta_under, dtype=float)
    if theta_under.shape != (support.size,):
        raise ValueError("theta_under must match the support size")
    rows = _as_rows(selection, data.n)
    b = np.zeros(data.n)
    b[rows] = 1.0
    unsel_mask = b == 0.0

    X_sub = data.X[:, support]
    vu = lift_parameter(theta_under)
    losses = sample_losses(X_sub, data.y, vu)
    lo = float(losses[rows].max()) if rows.size else 0.0
    hi = float(losses[unsel_mask].min()) if unsel_mask.any() else np.inf
    interval_ok = lo <= hi + _TOL
    nu = 0.5 * (lo + hi) if np.isfinite(hi) else lo

    beta = np.zeros(data.n)
    gamma = np.zeros(data.n)
    beta[unsel_mask] = losses[unsel_mask] - nu
    gamma[rows] = nu - losses[rows]

    # the same call as in kkt_residuals, so matrix stationarity cancels exactly
    Lambda, omega, mu, clip_count = _rank_one_dual(lifted_gram(X_sub, data.y, b),
                                                   theta_under, lam)
    s = np.append(omega, 1.0)
    zeta, mu_corner = np.outer(s, s), -mu

    feasible = bool(interval_ok and beta.min(initial=0.0) >= -_TOL
                    and gamma.min(initial=0.0) >= -_TOL and nu >= -_TOL)
    return DualCertificate(
        nu=nu, nu_interval=(lo, hi), beta=beta, gamma=gamma, Lambda=Lambda,
        mu_corner=mu_corner, zeta=zeta, omega=omega, feasible=feasible,
        omega_clip_count=clip_count,
    )


def kkt_residuals(cert: DualCertificate, data: Dataset, selection: np.ndarray,
                  vartheta_under: np.ndarray, lam: float,
                  support: np.ndarray) -> KKTReport:
    """Evaluate every KKT residual for the support-compacted relaxation.

    vartheta_under is the (|S|+1) x (|S|+1) lifted array of the candidate,
    `lift_parameter(theta_under)`; `primal_feas_ok` checks it against the
    feasible set of `model` (PSD with corner 1) to within `_TOL`.
    """
    support = _as_rows(support, data.p, "support")
    k1 = support.size + 1
    if vartheta_under.shape != (k1, k1):
        raise ValueError(f"vartheta_under must be {k1} x {k1} for a support of "
                         f"size {support.size}, got {vartheta_under.shape}")
    rows = _as_rows(selection, data.n)
    b = np.zeros(data.n)
    b[rows] = 1.0
    m = rows.size

    X_sub = data.X[:, support]
    losses = sample_losses(X_sub, data.y, vartheta_under)

    stationarity_b = np.abs(losses - cert.beta + cert.gamma - cert.nu)

    S_A = lifted_gram(X_sub, data.y, b)
    mu = np.zeros_like(cert.Lambda)
    mu[-1, -1] = cert.mu_corner
    stationarity_vartheta = np.linalg.norm(S_A + lam * cert.zeta - cert.Lambda + mu)

    comp = [abs(float((cert.Lambda * vartheta_under).sum())),
            abs(cert.nu * (m - b.sum())),
            float(np.abs(cert.beta * b).max(initial=0.0)),
            float(np.abs(cert.gamma * (b - 1.0)).max(initial=0.0))]

    eigs = np.linalg.eigvalsh(cert.Lambda)
    nullvec = np.concatenate([vartheta_under[:-1, -1], [1.0]])
    nullvec_residual = float(np.linalg.norm(cert.Lambda @ nullvec))

    primal_ok = bool(
        np.linalg.eigvalsh(vartheta_under)[0] >= -_TOL
        and abs(vartheta_under[-1, -1] - 1.0) <= _TOL
        and b.sum() >= m - _TOL
        and b.min(initial=0.0) >= 0.0 and b.max(initial=0.0) <= 1.0
    )
    return KKTReport(
        stationarity_b_max=float(stationarity_b.max(initial=0.0)),
        stationarity_vartheta_norm=float(stationarity_vartheta),
        comp_slack_max=float(max(comp)),
        dual_feas_min_eig=float(eigs[0]),
        nullvec_residual=nullvec_residual,
        second_eig=float(eigs[1]) if eigs.size > 1 else np.inf,
        primal_feas_ok=primal_ok,
    )


def assumption_check(data: Dataset, support: np.ndarray,
                     selection: np.ndarray | None = None,
                     alpha1: float = 1.0, alpha2: float = 1.0,
                     kappa: float = 0.5) -> AssumptionReport:
    """Finite-sample spectrum and incoherence diagnostics.

    Uses the selected rows when a selection is given, otherwise the rows
    labeled clean.  alpha1/alpha2/kappa are population quantities supplied
    by configuration (defaults match identity covariance); estimates from
    data are diagnostic only.
    """
    support = _as_rows(support, data.p, "support")
    if support.size == 0:
        raise EmptySupport("assumption check needs a nonempty support")
    if selection is None:
        rows = np.flatnonzero(data.labels == CLEAN)
    else:
        rows = _as_rows(selection, data.n)
    if rows.size == 0:
        raise ValueError("no rows to estimate the covariance from")
    Xr = data.X[rows]
    m = rows.size
    Sigma_hat = (Xr.T @ Xr) / m
    SS = Sigma_hat[np.ix_(support, support)]
    eigs = np.linalg.eigvalsh(SS)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])

    comp = np.setdiff1d(np.arange(data.p), support)
    if comp.size == 0:
        incoherence = 0.0
    else:
        B = _solve_on_support(SS.T, Sigma_hat[np.ix_(comp, support)].T).T
        incoherence = float(np.abs(B).sum(axis=1).max())

    return AssumptionReport(
        support=support,
        min_eig_SS=min_eig,
        max_eig_SS=max_eig,
        incoherence=incoherence,
        kappa_implied=1.0 - incoherence,
        alpha1=alpha1,
        alpha2=alpha2,
        pass_min_eig=bool(min_eig >= 0.5 * alpha1),
        pass_max_eig=bool(max_eig <= 1.5 * alpha2),
        pass_incoherence=bool(incoherence <= 1.0 - 0.5 * kappa),
    )


def _solve_on_support(SS: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """solve(SS, rhs) for an on-support covariance block, or SingularSubmatrix
    when its condition number is not finite or exceeds 1e12."""
    cond = np.linalg.cond(SS)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSubmatrix(
            f"on-support covariance block is singular (cond={cond:.3g})")
    return np.linalg.solve(SS, rhs)


def strict_dual_feasibility(data: Dataset, selection: np.ndarray,
                            th_S: np.ndarray, lam: float,
                            support: np.ndarray,
                            kappa: float = 0.5) -> tuple[float, bool]:
    """Off-support subgradient bound from the stationarity split.

    Computes the off-support subgradient implied by the selected rows'
    stationarity system at th_S (noise terms taken against the generating
    parameter) and passes when its sup norm stays below 1 - kappa/4.
    Requires the dataset's generating parameter and lam > 0.
    """
    if data.theta_star is None:
        raise ValueError("strict dual feasibility needs the generating parameter")
    if lam <= 0:
        raise ValueError("lam must be positive")
    support = _as_rows(support, data.p, "support")
    comp = np.setdiff1d(np.arange(data.p), support)
    rows = _as_rows(selection, data.n)
    m = rows.size
    th_S = np.asarray(th_S, dtype=float)
    if th_S.shape != (support.size,):
        raise ValueError("th_S must match the support size")

    Xr = data.X[rows]
    Xt = Xr[:, support]          # on-support columns
    Xb = Xr[:, comp]             # off-support columns
    e = data.y[rows] - Xr @ data.theta_star

    Sigma_SS = (Xt.T @ Xt) / m
    Sigma_cS = (Xb.T @ Xt) / m

    g_support = Xt.T @ (Xt @ th_S - data.y[rows])
    omega_t, _ = _recover_subgradient(th_S, g_support, lam)
    s1 = float(np.abs(th_S).sum())
    c = (lam / m) * (1.0 + s1)

    inner = (Xt.T @ e) / m - c * omega_t
    rhs = -Sigma_cS @ _solve_on_support(Sigma_SS, inner) + (Xb.T @ e) / m
    omega_bar = rhs / c
    omega_bar_inf = float(np.abs(omega_bar).max(initial=0.0))
    return omega_bar_inf, bool(omega_bar_inf <= 1.0 - 0.25 * kappa)


def invexity_gap(data: Dataset, b: np.ndarray, V: np.ndarray,
                 bb: np.ndarray, Vb: np.ndarray,
                 lam: float = 1.0) -> tuple[float, float]:
    """First-order gap of the weighted lifted objective at one pair.

    Uses the kernel that rescales the weight displacement by the ratio of
    lifted losses at the two matrices.  Returns (gap, bilinear) where
    `bilinear` drops the L1 term everywhere; the bilinear part is an exact
    algebraic identity (zero), the full gap must be nonnegative on the
    feasible domain.
    """
    X, y = data.X, data.y
    lv, lvb = sample_losses(X, y, V), sample_losses(X, y, Vb)
    xi = lv / lvb
    eta_b = xi * (b - bb)
    dV = V - Vb
    Gb = lifted_gram(X, y, bb)
    bilinear = float(b @ lv - bb @ lvb - eta_b @ lvb - (dV * Gb).sum())
    grad_pen = Gb + lam * np.sign(Vb)
    gap = float(b @ lv + lam * np.abs(V).sum()
                - bb @ lvb - lam * np.abs(Vb).sum()
                - eta_b @ lvb - (dV * grad_pen).sum())
    return gap, bilinear


def invexity_witness(data: Dataset, trials: int, seed: int = 0,
                     max_rejects: int = 500) -> tuple[float, float]:
    """Sample feasible pairs and evaluate the invexity gap numerically.

    Returns (min gap, max |bilinear part|) over the trials, at lam = 1 and
    weights b with sum b >= n // 2 + 1.  Matrices with any lifted loss
    below 0.05 are rejected since the displacement kernel divides by those
    losses.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, p = data.n, data.p
    bset = BFeasibleSet(n, n // 2 + 1)
    rng = np.random.default_rng(seed)
    X, y = data.X, data.y

    def sample_b():
        return project_b(rng.uniform(-0.2, 1.2, size=n), bset)

    def sample_vartheta():
        for _ in range(max_rejects):
            theta = rng.standard_normal(p)
            Q = rng.standard_normal((p + 1, 2))
            W = lift_parameter(theta) + rng.uniform(0.0, 0.5) * (Q @ Q.T)
            V = W / W[-1, -1]
            if sample_losses(X, y, V).min() >= 0.05:
                return V
        raise RejectionExhausted(
            f"no feasible lifted matrix with losses >= 0.05 after {max_rejects} draws")

    min_gap = np.inf
    bilinear_max = 0.0
    for _ in range(trials):
        gap, bilinear = invexity_gap(data, sample_b(), sample_vartheta(),
                                     sample_b(), sample_vartheta(), lam=1.0)
        min_gap = min(min_gap, gap)
        bilinear_max = max(bilinear_max, abs(bilinear))
    return min_gap, bilinear_max


def _curvature_gap(b, bb, theta, thetab, X, y):
    """First-order gap of the weighted squared loss, straight from its
    definition (partials evaluated at the barred point)."""
    f_bar = (y - X @ thetab) ** 2
    g1 = float(b @ ((y - X @ theta) ** 2))
    g2 = float(bb @ f_bar)
    grad_theta = -2.0 * (X.T @ (bb * (y - X @ thetab)))
    return g1 - g2 - float(f_bar @ (b - bb)) - float(grad_theta @ (theta - thetab))


def nonconvexity_witness(data: Dataset) -> tuple[float, float]:
    """Exhibit both signs of the first-order gap for the weighted loss.

    Uses the displacement pair b = 0, b_bar = 1/2 and parameters supported
    on the largest-norm predictor column; scans a few offsets around the
    root of the resulting scalar to find strictly positive and strictly
    negative gap values.
    """
    X, y = data.X, data.y
    colnorm = (X * X).sum(axis=0)
    if colnorm.max() <= 0.0:
        raise AllZeroColumn("every predictor column is zero")
    t = int(colnorm.argmax())
    c1 = float(colnorm[t])
    w0 = float((X[:, t] @ y) / c1)

    b = np.zeros(data.n)
    bb = np.full(data.n, 0.5)
    u = w0 + 2.0
    g_pos, g_neg = -np.inf, np.inf
    for w in (w0 + 1.0, w0 + 3.0, w0 - 1.0, w0 - 3.0):
        theta = np.zeros(data.p)
        thetab = np.zeros(data.p)
        theta[t] = u
        thetab[t] = w
        val = _curvature_gap(b, bb, theta, thetab, X, y)
        g_pos = max(g_pos, val)
        g_neg = min(g_neg, val)
    if not (g_pos > 0.0 > g_neg):
        raise RuntimeError("gap scan failed to produce both signs")
    return g_pos, g_neg
