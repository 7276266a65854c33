import dataclasses
import json

import numpy as np
import pytest

from invexreg.bench import certify_at_true_support
from invexreg.certify import (AllZeroColumn, EmptySupport, RejectionExhausted,
                              SingularSubmatrix, assumption_check, build_duals,
                              invexity_gap, invexity_witness, kkt_residuals,
                              nonconvexity_witness, strict_dual_feasibility,
                              _curvature_gap)
from invexreg.datagen import GenSpec, generate
from invexreg.model import (CLEAN, OUTLIER, Dataset, lift_parameter, sample_losses,
                            to_jsonable)
from invexreg.oracle import enumerate_best_subset
from invexreg.projections import BFeasibleSet, project_b
from invexreg.solver import SolverConfig, refit, solve_invex


def tiny_instance(seed, sigma_e=0.05):
    spec = GenSpec(p=4, k=2, r=4, n_outliers=4, seed=seed, sigma_e=sigma_e,
                   rho_min=5.0, max_resamples=500)
    return generate(spec)


def solve_and_certify(data, lam, m):
    res = solve_invex(data, SolverConfig(m=m, lam=lam))
    support, th_S, cert, rep, _ = certify_at_true_support(data, res.b_rounded, lam)
    return res, support, th_S, cert, rep


def test_duals_noiseless_all_clean_selection():
    rng = np.random.default_rng(0)
    p, k = 3, 2
    theta = np.array([0.8, -0.5, 0.0])
    Xc = rng.standard_normal((5, p))
    yc = Xc @ theta
    Xo = rng.uniform(0, 1, (3, p))
    yo = np.array([4.0, 4.5, 5.0])
    data = Dataset(X=np.vstack([Xc, Xo]), y=np.concatenate([yc, yo]),
                   labels=np.array([CLEAN] * 5 + [OUTLIER] * 3),
                   theta_star=theta)
    support = np.array([0, 1])
    sel = np.zeros(8)
    sel[:5] = 1.0
    cert = build_duals(data, sel, theta[support], 0.0, support)
    lo, hi = cert.nu_interval
    assert abs(lo) <= 1e-12  # every selected loss vanishes (up to fp noise)
    out_losses = sample_losses(data.X[5:, support], data.y[5:],
                               lift_parameter(theta[support]))
    assert abs(hi - out_losses.min()) <= 1e-12
    assert cert.feasible
    assert cert.beta.min() >= 0 and cert.gamma.min() >= 0


def test_duals_selecting_worst_outlier_is_infeasible():
    data = tiny_instance(0)
    support = np.flatnonzero(np.abs(data.theta_star) > 0)
    losses = (data.y - data.X @ data.theta_star) ** 2
    worst = int(np.argmax(losses))
    clean = list(np.flatnonzero(data.clean_mask))[:3]
    sel = np.zeros(data.n)
    sel[clean] = 1.0
    sel[worst] = 1.0
    th_S = refit(data, sel, 1.18, support=support)[support]
    cert = build_duals(data, sel, th_S, 1.18, support)
    lo, hi = cert.nu_interval
    assert lo > hi  # interval is empty
    assert not cert.feasible


def test_certificate_identities_on_converged_runs():
    for seed in range(5):
        data = tiny_instance(seed)
        res, support, th_S, cert, rep = solve_and_certify(data, 1.18, 4)
        assert cert.feasible
        assert rep.stationarity_vartheta_norm <= 1e-10
        assert rep.comp_slack_max <= 1e-10
        assert rep.stationarity_b_max <= 1e-10
        assert rep.nullvec_residual <= 1e-6
        assert rep.dual_feas_min_eig >= -1e-8
        assert rep.second_eig > 0
        assert rep.primal_feas_ok
        assert np.abs(cert.zeta).max() <= 1.0 + 1e-12
        assert np.abs(cert.omega).max() <= 1.0 + 1e-12


def test_zeta_is_valid_subgradient_outer_product():
    data = tiny_instance(1)
    _, support, th_S, cert, _ = solve_and_certify(data, 1.18, 4)
    w1 = np.concatenate([cert.omega, [1.0]])
    assert np.abs(cert.zeta - np.outer(w1, w1)).max() <= 1e-12
    on = th_S != 0
    assert np.array_equal(cert.omega[on], np.sign(th_S[on]))


def test_empty_support_raises():
    data = tiny_instance(2)
    with pytest.raises(EmptySupport):
        build_duals(data, np.ones(data.n), np.array([]), 1.0, np.array([], dtype=int))


@pytest.mark.parametrize("lam", [-1.0, float("nan")])
def test_build_duals_rejects_a_negative_or_non_finite_lam(lam):
    """A negative lam would flip the sign of lam s s^T in Lambda; the
    certificate names lam instead of reporting feasible duals."""
    data = tiny_instance(0)
    support = np.flatnonzero(data.theta_star)
    with pytest.raises(ValueError, match="^lam must be finite and >= 0"):
        build_duals(data, np.ones(data.n), data.theta_star[support], lam, support)


@pytest.mark.parametrize("support", [np.array([-1]), np.array([0, 4])])
def test_build_duals_rejects_support_outside_the_columns(support):
    data = tiny_instance(2)
    with pytest.raises(ValueError, match=r"must lie in \[0, 4\)"):
        build_duals(data, np.ones(data.n), np.zeros(support.size), 1.0, support)


@pytest.mark.parametrize("support", [np.array([-1]), np.array([0, 4])])
@pytest.mark.parametrize("check", ["kkt_residuals", "assumption_check",
                                   "strict_dual_feasibility"])
def test_diagnostics_reject_support_outside_the_columns(check, support):
    """A negative column must not wrap round to column p - 1, and a column
    past p must fail with the range, not a bare IndexError."""
    data = tiny_instance(2)
    sel = np.ones(data.n)
    with pytest.raises(ValueError, match=r"must lie in \[0, 4\)"):
        if check == "kkt_residuals":
            cert = build_duals(data, sel, np.zeros(1), 1.0, np.array([0]))
            kkt_residuals(cert, data, sel, lift_parameter(np.zeros(support.size)),
                          1.0, support=support)
        elif check == "assumption_check":
            assumption_check(data, support)
        else:
            strict_dual_feasibility(data, sel, np.zeros(support.size), 1.0, support)


def test_kkt_residuals_checks_the_support_and_the_lifted_size():
    """The residuals are taken on the certificate's support, never on
    columns 0..|S|-1, and a lifted parameter of the wrong size is named."""
    data = tiny_instance(0)
    res, support, th_S, cert, _ = solve_and_certify(data, 1.18, 4)
    assert support.tolist() == [2, 3]
    with pytest.raises(TypeError, match="support"):
        kkt_residuals(cert, data, res.b_rounded, lift_parameter(th_S), 1.18)
    for theta in (np.zeros(support.size + 1), np.zeros(support.size - 1)):
        with pytest.raises(ValueError, match="vartheta_under must be 3 x 3"):
            kkt_residuals(cert, data, res.b_rounded, lift_parameter(theta), 1.18,
                          support)


def test_strict_dual_needs_the_support_restricted_parameter():
    data = tiny_instance(0)
    res, support, th_S, _, _ = solve_and_certify(data, 1.18, 4)
    theta = np.zeros(data.p)
    theta[support] = th_S
    with pytest.raises(ValueError, match="th_S must match the support size"):
        strict_dual_feasibility(data, res.b_rounded, theta, 1.18, support)


def test_assumption_check_identity_covariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10000, 10))
    data = Dataset(X=X, y=np.zeros(10000),
                   labels=np.array([CLEAN] * 10000))
    rep = assumption_check(data, support=np.array([0, 3, 7]))
    assert 0.9 <= rep.min_eig_SS <= 1.1
    assert rep.incoherence <= 0.2
    assert rep.pass_min_eig and rep.pass_max_eig and rep.pass_incoherence
    assert abs(rep.kappa_implied - (1 - rep.incoherence)) <= 1e-12


def test_assumption_check_degenerate_rows():
    X = np.ones((20, 4))
    data = Dataset(X=X, y=np.zeros(20), labels=np.array([CLEAN] * 20))
    with pytest.raises(SingularSubmatrix):
        assumption_check(data, support=np.array([0, 1]))


def test_assumption_check_full_support_no_complement():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((500, 3))
    data = Dataset(X=X, y=np.zeros(500), labels=np.array([CLEAN] * 500))
    rep = assumption_check(data, support=np.arange(3))
    assert rep.incoherence == 0.0


def test_strict_dual_matches_residual_form():
    # the displayed noise-split formula equals the off-support stationarity
    # residual form identically when the refit is stationary
    data = tiny_instance(0)
    lam = 1.18
    res, support, th_S, cert, _ = solve_and_certify(data, lam, 4)
    wbar, _ = strict_dual_feasibility(data, res.b_rounded, th_S, lam, support)
    rows = res.selection
    comp = np.setdiff1d(np.arange(data.p), support)
    resid = data.y[rows] - data.X[rows][:, support] @ th_S
    direct = (data.X[rows][:, comp].T @ resid) / (lam * (1 + np.abs(th_S).sum()))
    assert abs(np.abs(direct).max() - wbar) <= 1e-6


def test_strict_dual_noiseless_bounded_by_incoherence():
    rng = np.random.default_rng(5)
    p, k, n = 6, 2, 120
    theta = np.zeros(p)
    theta[:k] = [0.9, -0.6]
    X = rng.standard_normal((n, p))
    y = X @ theta  # no noise
    data = Dataset(X=X, y=y, labels=np.array([CLEAN] * n), theta_star=theta)
    lam = 0.8
    support = np.arange(k)
    th_S = refit(data, np.ones(n), lam, support=support)[support]
    wbar, _ = strict_dual_feasibility(data, np.ones(n), th_S, lam, support)
    rep = assumption_check(data, support)
    assert wbar <= rep.incoherence + 1e-6


def test_strict_dual_tiny_lambda_fails():
    data = tiny_instance(3)
    res, support, th_S, _, _ = solve_and_certify(data, 1.18, 4)
    th_tiny = refit(data, res.b_rounded, 1e-6, support=support)[support]
    wbar, ok = strict_dual_feasibility(data, res.b_rounded, th_tiny, 1e-6, support)
    assert not ok and wbar > 1.0


def test_strict_dual_requires_theta_star():
    data = tiny_instance(4)
    stripped = Dataset(X=data.X, y=data.y, labels=data.labels)
    with pytest.raises(ValueError):
        strict_dual_feasibility(stripped, np.ones(data.n), np.zeros(2), 1.0,
                                np.array([0, 1]))


def test_invexity_witness_bounds():
    data = tiny_instance(5)
    min_gap, bilinear = invexity_witness(data, trials=400, seed=7)
    assert bilinear <= 1e-9
    assert min_gap >= -1e-9


def test_invexity_gap_zero_for_equal_pair():
    data = tiny_instance(6)
    rng = np.random.default_rng(8)
    b = project_b(rng.uniform(0, 1, data.n), BFeasibleSet(data.n, 4))
    V = lift_parameter(rng.standard_normal(data.p)) + 0.1 * np.eye(data.p + 1)
    V = V / V[-1, -1]
    gap, bilinear = invexity_gap(data, b, V, b.copy(), V.copy())
    assert gap == 0.0 and bilinear == 0.0


def test_invexity_rejection_exhausted():
    # a zero sample keeps one lifted loss at zero for every matrix
    data = Dataset(X=np.zeros((3, 2)), y=np.zeros(3),
                   labels=np.array([CLEAN] * 3))
    with pytest.raises(RejectionExhausted):
        invexity_witness(data, trials=1, seed=0)


def test_nonconvexity_witness_signs():
    data = tiny_instance(7)
    g_pos, g_neg = nonconvexity_witness(data)
    assert g_pos > 1e-6 and g_neg < -1e-6


def test_curvature_gap_vanishes_at_equal_displacement():
    data = tiny_instance(8)
    b = np.zeros(data.n)
    bb = np.full(data.n, 0.5)
    theta = np.zeros(data.p)
    theta[0] = 1.3
    val = _curvature_gap(b, bb, theta, theta.copy(), data.X, data.y)
    assert val == 0.0


def test_nonconvexity_all_zero_column():
    data = Dataset(X=np.zeros((4, 2)), y=np.ones(4),
                   labels=np.array([CLEAN] * 4))
    with pytest.raises(AllZeroColumn):
        nonconvexity_witness(data)


def test_reports_serialize():
    data = tiny_instance(9)
    res, support, th_S, cert, rep = solve_and_certify(data, 1.18, 4)
    assert "nu" in json.dumps(to_jsonable(cert))
    assert "second_eig" in json.dumps(to_jsonable(rep))
    arep = assumption_check(data, support, selection=res.b_rounded)
    assert "incoherence" in json.dumps(to_jsonable(arep))


@pytest.fixture(scope="module")
def results():
    """One of each result type written by the CLI, on one tiny instance."""
    data = tiny_instance(9)
    res, support, th_S, cert, rep = solve_and_certify(data, 1.18, 4)
    return {"SolveResult": res, "DualCertificate": cert, "KKTReport": rep,
            "AssumptionReport": assumption_check(data, support,
                                                 selection=res.b_rounded),
            "OracleResult": enumerate_best_subset(data, 4, 1.18)}


@pytest.mark.parametrize("name", ["SolveResult", "DualCertificate", "KKTReport",
                                  "AssumptionReport", "OracleResult"])
def test_results_serialize_field_by_field(results, name):
    x = results[name]
    assert type(x).__name__ == name
    payload = json.loads(json.dumps(to_jsonable(x), allow_nan=False))
    assert set(payload) == {f.name for f in dataclasses.fields(x)}


def test_non_finite_floats_serialize_as_null(results):
    rep = dataclasses.replace(results["KKTReport"], second_eig=np.inf)
    cert = results["DualCertificate"]
    cert = dataclasses.replace(cert, nu_interval=(cert.nu_interval[0], np.inf))
    assert to_jsonable(rep)["second_eig"] is None
    assert to_jsonable(cert)["nu_interval"] == [cert.nu_interval[0], None]
    json.dumps([to_jsonable(rep), to_jsonable(cert)], allow_nan=False)
