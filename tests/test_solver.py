import dataclasses
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from invexreg import solver
from invexreg.bench import ExperimentConfig, lambda_from_m
from invexreg.certify import build_duals
from invexreg.datagen import GenSpec, generate
from invexreg.model import (CLEAN, Dataset, lift_parameter, lift_sample, lifted_gram,
                            objective, sample_losses, to_jsonable)
from invexreg.oracle import subset_objective
from invexreg.solver import InfeasibleM, SolverConfig, grad_vartheta, refit, solve_invex


def all_clean_dataset(rng, n, p, theta, sigma_e=0.0):
    X = rng.standard_normal((n, p))
    y = X @ theta + sigma_e * rng.standard_normal(n)
    return Dataset(X=X, y=y, labels=np.array([CLEAN] * n), theta_star=theta)


def tiny_instance(seed, sigma_e=0.05, rho_min=5.0):
    spec = GenSpec(p=4, k=2, r=4, n_outliers=4, seed=seed, sigma_e=sigma_e,
                   rho_min=rho_min, max_resamples=500)
    return generate(spec)


def test_grad_vartheta_zero_and_single():
    data = tiny_instance(0)
    assert np.all(grad_vartheta(np.zeros(data.n), data) == 0.0)
    e0 = np.zeros(data.n)
    e0[0] = 1.0
    A0 = lift_sample(data.X[0], data.y[0])
    assert np.abs(grad_vartheta(e0, data) - A0).max() <= 1e-12


def test_grad_vartheta_finite_differences():
    rng = np.random.default_rng(1)
    data = tiny_instance(1)
    b = rng.uniform(0, 1, data.n)
    V = lift_parameter(rng.standard_normal(data.p))
    G = grad_vartheta(b, data)
    h = 1e-6
    for _ in range(12):
        i, j = rng.integers(0, data.p + 1, size=2)
        E = np.zeros_like(V)
        E[i, j] += 0.5
        E[j, i] += 0.5  # keep the perturbation symmetric
        fp = b @ sample_losses(data.X, data.y, V + h * E)
        fm = b @ sample_losses(data.X, data.y, V - h * E)
        fd = (fp - fm) / (2 * h)
        analytic = float((G * E).sum())
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def _subgradient_descent_oracle(X, y, lam, iters=60000, seed=0):
    """Slow independent check: multi-start diminishing-step subgradient descent."""
    rng = np.random.default_rng(seed)
    p = X.shape[1]
    best = (np.inf, None)
    ls = np.linalg.lstsq(X, y, rcond=None)[0]
    for start in (np.zeros(p), ls, ls + 0.3 * rng.standard_normal(p)):
        th = start.copy()
        obj = lambda t: float(np.sum((y - X @ t) ** 2) + lam * (np.abs(t).sum() + 1) ** 2)
        cur_best = (obj(th), th.copy())
        for it in range(1, iters + 1):
            g = -2 * X.T @ (y - X @ th) + 2 * lam * (np.abs(th).sum() + 1) * np.sign(th)
            th = th - 0.5 / (np.sqrt(it) * (1 + np.linalg.norm(g))) * g
            o = obj(th)
            if o < cur_best[0]:
                cur_best = (o, th.copy())
        if cur_best[0] < best[0]:
            best = cur_best
    return best


def test_refit_unpenalized_is_least_squares():
    rng = np.random.default_rng(7)
    theta = np.array([0.5, -1.0, 0.25])
    data = all_clean_dataset(rng, 12, 3, theta, sigma_e=0.1)
    got = refit(data, np.ones(data.n), 0.0)
    ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    assert np.abs(got - ols).max() <= 1e-6


def test_refit_huge_lambda_kills_theta():
    rng = np.random.default_rng(9)
    data = all_clean_dataset(rng, 10, 3, np.array([1.0, 0.0, -1.0]), sigma_e=0.05)
    got = refit(data, np.ones(data.n), 1e7)
    assert np.abs(got).max() <= 1e-6


def test_refit_matches_subgradient_oracle():
    rng = np.random.default_rng(11)
    theta = np.array([0.9, -0.4])
    data = all_clean_dataset(rng, 8, 2, theta, sigma_e=0.1)
    lam = 0.8
    got = refit(data, np.ones(data.n), lam)
    obj = float(np.sum((data.y - data.X @ got) ** 2)
                + lam * (np.abs(got).sum() + 1) ** 2)
    oracle_obj, _ = _subgradient_descent_oracle(data.X, data.y, lam)
    assert obj <= oracle_obj + 1e-5 * max(1.0, abs(oracle_obj))


def test_refit_support_restriction_zero_pads():
    rng = np.random.default_rng(13)
    data = all_clean_dataset(rng, 10, 4, np.array([1.0, 0.0, -0.5, 0.0]))
    got = refit(data, np.ones(data.n), 0.1, support=np.array([0, 2]))
    assert got[1] == 0.0 and got[3] == 0.0


def two_row_dataset():
    return Dataset(X=np.array([[1.0], [2.0]]), y=np.array([1.0, 50.0]),
                   labels=np.array([CLEAN] * 2))


def test_refit_index_array_is_not_a_mask():
    data = two_row_dataset()
    both = refit(data, np.array([True, True]), 0.1)
    assert np.array_equal(refit(data, np.array([0, 1]), 0.1), both)
    assert np.array_equal(refit(data, np.ones(2), 0.1), both)
    assert not np.array_equal(refit(data, np.array([1]), 0.1), both)


@pytest.mark.parametrize("bad", [np.array([1.0]), np.array([0.0, 2.0]),
                                 np.array([True]), np.array([0, 2]),
                                 np.array([-1]), np.zeros((2, 2), dtype=int),
                                 np.array(["0", "1"])])
def test_refit_rejects_malformed_selection(bad):
    with pytest.raises(ValueError, match="selection"):
        refit(two_row_dataset(), bad, 0.1)


@pytest.mark.parametrize("support,match", [
    (np.array([1]), r"^support indices must lie in \[0, 1\)"),
    (np.array([1.0, 0.0]), "^a float64 support must be a 0/1 mask of length 1"),
    (np.array(["0"]), "^support must be a 0/1 mask or 1-d integer indices"),
])
def test_refit_names_a_malformed_support(support, match):
    with pytest.raises(ValueError, match=match):
        refit(two_row_dataset(), np.array([0, 1]), 0.1, support=support)


@pytest.mark.parametrize("where", ["X", "y", "lam", "negative lam"])
def test_refit_rejects_non_finite_input(where):
    """A negative lam makes the refit unbounded below, so it is refused
    like a non-finite one. A non-finite X or y is refused by Dataset
    before refit can see it."""
    rng = np.random.default_rng(17)
    data = all_clean_dataset(rng, 30, 5, np.array([1.0, -0.5, 0.0, 0.25, 0.0]))
    X, y = data.X.copy(), data.y.copy()
    lam = 0.5
    if where == "X":
        X[2, 1] = np.inf
    elif where == "y":
        y[3] = np.nan
    else:
        lam = np.inf if where == "lam" else -1.0
    with pytest.raises(ValueError, match=f"^{where.split()[-1]} must be finite"):
        refit(Dataset(X=X, y=y, labels=data.labels), np.ones(data.n), lam)


@pytest.mark.parametrize("support", [np.array([-1]), np.array([0, 3])])
def test_refit_rejects_support_outside_the_columns(support):
    rng = np.random.default_rng(19)
    data = all_clean_dataset(rng, 10, 3, np.array([1.0, 0.0, -0.5]))
    with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
        refit(data, np.ones(data.n), 0.1, support=support)


def test_solve_exactly_determined_noiseless():
    rng = np.random.default_rng(15)
    theta = np.array([0.7, -0.3])
    data = all_clean_dataset(rng, 6, 2, theta, sigma_e=0.0)
    res = solve_invex(data, SolverConfig(m=6, lam=0.0))
    assert np.abs(res.theta_hat - theta).max() <= 1e-6
    assert res.objective_trace[-1] <= 1e-6 * max(1.0, res.objective_trace[0])


def test_solve_reduces_to_least_squares_all_clean():
    rng = np.random.default_rng(17)
    theta = np.array([0.4, 0.0, -0.8])
    data = all_clean_dataset(rng, 20, 3, theta, sigma_e=0.1)
    res = solve_invex(data, SolverConfig(m=20, lam=0.0))
    ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    assert np.abs(res.theta_hat - ols).max() <= 1e-6


def test_solve_monotone_trace_and_feasible_iterates():
    for seed in (0, 3, 8):
        data = tiny_instance(seed)
        cfg = SolverConfig(m=4, lam=1.0)
        res = solve_invex(data, cfg)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert res.b_rounded.sum() == 4
        assert set(np.unique(res.b_rounded)) <= {0.0, 1.0}


def test_selection_takes_the_m_smallest_losses_ties_to_the_smallest_index():
    """With X = 0 every theta gives the losses y_i^2, so the selection is
    the b-step's rule alone."""
    flat = Dataset(X=np.zeros((4, 2)), y=np.ones(4), labels=np.array([CLEAN] * 4))
    assert solve_invex(flat, SolverConfig(m=2, lam=0.1)).selection.tolist() == [0, 1]
    ds = Dataset(X=np.zeros((3, 1)), y=np.sqrt(np.array([5.0, 1.0, 3.0])),
                 labels=np.array([CLEAN] * 3))
    res = solve_invex(ds, SolverConfig(m=2, lam=0.1))
    assert res.b_rounded.tolist() == [0.0, 1.0, 1.0]
    assert solve_invex(ds, SolverConfig(m=3, lam=0.1)).b_rounded.sum() == 3


def test_solve_infeasible_m():
    data = tiny_instance(2)
    with pytest.raises(InfeasibleM):
        solve_invex(data, SolverConfig(m=data.n + 1, lam=1.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(m=2, lam=-1.0)
    SolverConfig(m=np.int64(4), lam=np.float64(0.1))
    # the round cap is solver._MAX_ROUNDS, not a setting
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["m", "lam"]
    with pytest.raises(TypeError):
        SolverConfig(m=4, lam=0.1, max_outer=3)


@pytest.mark.parametrize("field,value", [
    ("m", -3), ("m", 0), ("m", 2.5), ("m", 3.0), ("m", True),
    ("lam", float("nan")), ("lam", float("inf")), ("lam", -float("inf")),
])
def test_solver_config_rejects_a_bad_field_by_name(field, value):
    kwargs = {"m": 4, "lam": 0.1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverConfig(**kwargs)


def test_exact_v_step_reaches_the_lam0_minimum():
    """At lam = 0 the smooth part is singular and the minimum, 0 here, lies
    along the gradient's null ray; the refit interpolates the m = p
    selected rows and reaches it."""
    res = solve_invex(tiny_instance(4), SolverConfig(m=4, lam=0.0))
    assert res.objective_trace[-1] <= 1e-9


def test_result_json_round_trip():
    data = tiny_instance(3)
    res = solve_invex(data, SolverConfig(m=4, lam=1.0))
    payload = json.loads(json.dumps(to_jsonable(res)))
    assert payload["config"]["m"] == 4
    assert len(payload["b_rounded"]) == data.n
    assert payload["objective_trace"][0] >= payload["objective_trace"][-1]
    assert payload["dual_min_eig"] == res.dual_min_eig >= -1e-9


def test_objective_trace_matches_objective_function():
    """The lifted objective at theta_hat and the final selection is the
    trace's last value, since the last round's kept set is the selection
    theta_hat was solved on, and equals the paper's objective on the
    selected rows."""
    for seed, lam in itertools.product(range(5), (0.0, 0.7, 3.0)):
        data = tiny_instance(seed)
        res = solve_invex(data, SolverConfig(m=4, lam=lam))
        assert res.converged
        lifted = objective(res.b_rounded, lift_parameter(res.theta_hat), data, lam)
        scale = max(1.0, abs(lifted))
        assert abs(lifted - res.objective_trace[-1]) <= 1e-9 * scale
        assert abs(lifted - subset_objective(data, res.selection, res.theta_hat, lam)) \
            <= 1e-9 * scale


def _solve_cell(config, m, seed, n_outliers=None):
    """(data, solve_invex result) of one sweep cell, matched by m and, when
    given, n_outliers, solved as the sweep solves it."""
    cfg = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent / config)
    cell = next(c for c in cfg.cells() if c["m"] == m
                and n_outliers in (None, c["n_outliers"]))
    data = generate(GenSpec(p=cfg.p, k=cfg.k, r=cell["r"],
                            n_outliers=cell["n_outliers"], seed=seed,
                            sigma_e=cfg.sigma_e, max_resamples=cfg.max_resamples,
                            rho_min=cfg.rho_min))
    lam = lambda_from_m(m, cfg.p, cfg.c_lambda)
    return data, solve_invex(data, SolverConfig(m=m, lam=lam))


def _check_solve_pin(name):
    """Pins solve_invex on one sweep cell, matched by m and, when the file
    names it, n_outliers.  The expected values in tests/data/<name> were
    recorded from an earlier commit (named in the file); a change that
    claims to keep the solver's output must keep them."""
    root = Path(__file__).resolve().parent
    want = json.loads((root / "data" / name).read_text())
    _, res = _solve_cell(want["config"], want["m"], want["seed"], want.get("n_outliers"))
    assert res.selection.tolist() == want["selection"]
    assert res.outer_iters == want["outer_iters"]
    assert len(res.objective_trace) == want["trace_len"]
    assert np.abs(res.theta_hat - np.array(want["theta_hat"])).max() <= 1e-12


def test_solve_invex_pinned_output_fig2_p50_m484_seed0():
    _check_solve_pin("solve_pin_fig2_p50_m484_seed0.json")  # 7 rounds


def test_solve_invex_pinned_output_fig2_p50_m122_seed0():
    _check_solve_pin("solve_pin_fig2_p50_m122_seed0.json")  # 5 rounds, outliers selected


def test_solve_invex_pinned_output_proportions_p30_x045_seed0():
    _check_solve_pin("solve_pin_proportions_p30_x045_seed0.json")  # 7 rounds, m=366


def test_solve_invex_pinned_output_fig2_p50_m306_seed0():
    _check_solve_pin("solve_pin_fig2_p50_m306_seed0.json")  # 11 rounds


@pytest.mark.parametrize("cell", [("configs/fig2_p50.json", 306), ("configs/fig2_p50.json", 122)])
def test_solve_stops_at_the_first_repeated_kept_set(monkeypatch, cell):
    """The b-step's kept sets, from theta = 0's on, change every round until
    the first round whose kept set equals the previous one, where the solve
    stops converged and returns it; theta_hat meets the refit's stop rule on
    X_sel^T X_sel formed fresh, up to the roundoff of the carried Gram."""
    kept = []
    real = solver._keep_smallest
    monkeypatch.setattr(solver, "_keep_smallest",
                        lambda r, keep: kept.append(real(r, keep)) or kept[-1])
    data, res = _solve_cell(*cell, 0)
    assert res.converged and len(kept) == res.outer_iters + 1 >= 3
    assert all(not np.array_equal(a, b) for a, b in zip(kept[:-2], kept[1:-1]))
    assert np.array_equal(kept[-1], kept[-2])
    assert np.array_equal(res.b_rounded, kept[-1])
    Xs, ys = data.X[res.selection], data.y[res.selection]
    H, c = Xs.T @ Xs, Xs.T @ ys
    assert _refit_residual(H, c, res.theta_hat, res.config.lam) <= 1e-8 + 1e-13 * np.abs(c).max()


def mid_instance(seed):
    return generate(GenSpec(p=20, k=3, r=60, n_outliers=30, seed=seed, sigma_e=0.1,
                            rho_min=1.0, max_resamples=500))


@pytest.mark.parametrize("m", [40, 12])  # m >= p + 1, and m < p + 1 (G singular)
def test_dual_record_certifies_the_solve(m, monkeypatch):
    """The solve assembles G from the last round's Gram form; its dual
    record is the one `grad_vartheta`'s G gives, and it certifies."""
    assembled = []
    real = solver._dual_min_eig
    monkeypatch.setattr(solver, "_dual_min_eig",
                        lambda G, theta, lam: assembled.append(G) or real(G, theta, lam))
    data = mid_instance(5)
    lam = 0.05 * np.sqrt(m * np.log(data.p))
    res = solve_invex(data, SolverConfig(m=m, lam=lam))
    assert np.any(res.theta_hat != 0.0)
    G = grad_vartheta(res.b_rounded, data)
    if m < data.p + 1:
        assert np.linalg.matrix_rank(G) < data.p + 1
    Lam, w, _, _ = solver._rank_one_dual(G, res.theta_hat, lam)
    z, on = np.append(res.theta_hat, 1.0), res.theta_hat != 0.0
    assert np.abs(Lam @ z).max() <= 1e-6
    assert abs(float((Lam * np.outer(z, z)).sum())) <= 1e-12 * np.abs(Lam).max()
    assert np.array_equal(w[on], np.sign(res.theta_hat[on]))
    (G_solve,) = assembled
    assert np.abs(G_solve - G).max() <= 1e-12 * np.abs(G).max()
    Lam_solve = solver._rank_one_dual(G_solve, res.theta_hat, lam)[0]
    assert res.dual_min_eig == np.linalg.eigvalsh(Lam_solve)[0] / np.abs(Lam_solve).max()
    assert res.dual_min_eig >= -1e-9


@pytest.mark.parametrize("config, m", [("configs/fig2_p50.json", 484),
                                       ("configs/fig2_p100.json", 671)])
def test_certificate_dual_is_the_solve_dual_on_the_support(config, m):
    """Where the solve's support is theta*'s support S, the certificate's
    Lambda at the solve's theta_hat[S] is the solve's dual record Lambda
    on the full lifted Gram restricted to S and the corner: one
    construction, `solver._rank_one_dual`, on two Grams that agree there."""
    data, res = _solve_cell(config, m, 0)
    lam = res.config.lam
    S = np.flatnonzero(data.theta_star)
    assert np.array_equal(np.flatnonzero(res.theta_hat), S)
    cert = build_duals(data, res.b_rounded, res.theta_hat[S], lam, S)
    Lam = solver._rank_one_dual(lifted_gram(data.X, data.y, res.b_rounded),
                                res.theta_hat, lam)[0]
    keep = np.append(S, data.p)   # S and the corner
    gap = np.abs(cert.Lambda - Lam[np.ix_(keep, keep)]).max()
    assert gap <= 1e-12 * np.abs(Lam).max()


def near_collinear_instance():
    """mid_instance(2) with column 1 replaced by column 0 + 1e-4 column 1."""
    data = mid_instance(2)
    X = data.X.copy()
    X[:, 1] = X[:, 0] + 1e-4 * X[:, 1]
    return Dataset(X=X, y=data.y, labels=data.labels, theta_star=data.theta_star)


# (21, 0.0): least squares on m = p + 1 rows, whose first full solve passes
# the stop rule although its signs differ from the pattern it was solved on
@pytest.mark.parametrize("m, lam", [(40, 0.01), (21, 0.0)])
def test_near_collinear_solve_is_exact_and_certified(m, lam, completion_runs):
    """The sign-pattern refit solves this near-collinear design with no
    completion run and no warning, and the dual record certifies."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_invex(near_collinear_instance(), SolverConfig(m=m, lam=lam))
    assert not completion_runs
    assert res.dual_min_eig >= -1e-9


@pytest.mark.parametrize("p", [4, 20])
def test_near_collinear_recipe_solves_exactly(p):
    """Column 1 is column 0 + 1e-4 column 1, at m below, at and above p + 1
    and lam from 0 to 100, on three seeds: every solve, whichever refits
    reach the completion, ends without a warning, and the dual record
    certifies it."""
    for seed in range(3):
        data = generate(GenSpec(p=p, k=2, r=3 * p, n_outliers=2 * p, seed=seed,
                                rho_min=1.0, max_resamples=500))
        X = data.X.copy()
        X[:, 1] = X[:, 0] + 1e-4 * X[:, 1]
        data = Dataset(X=X, y=data.y, labels=data.labels, theta_star=data.theta_star)
        for m, lam in itertools.product((p // 2, p + 1, 2 * p), (0.0, 0.01, 1.0, 100.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = solve_invex(data, SolverConfig(m=m, lam=lam))
            assert res.dual_min_eig >= -1e-9, (seed, m, lam)


def _refit_residual(H, c, theta, lam):
    """Largest stationarity residual of theta^T H theta - 2 c^T theta
    + lam (||theta||_1 + 1)^2, from the subdifferential directly."""
    g = H @ theta - c
    scale = lam * (np.abs(theta).sum() + 1.0)
    return np.where(theta != 0.0, np.abs(g + scale * np.sign(theta)),
                    np.maximum(np.abs(g) - scale, 0.0)).max()


def derived_residual(theta, g, shift, rank_one):
    """`solver._l1_residual` at theta for a given full gradient g: with
    H = 0 and c = -g / 2 the helper's g = 2 (H theta - c) is g bit for bit."""
    g_out, resid = solver._l1_residual(np.zeros((g.size, g.size)), -0.5 * g, theta,
                                       shift, rank_one)
    assert np.array_equal(g_out, g)
    return resid


def by_hand(theta, g, tau):
    """The L1 stationarity residual written out: |g_j + tau_j sign theta_j|
    on the nonzeros and (|g_j| - tau_j)_+ on the zeros."""
    out = np.empty(theta.size)
    for j in range(theta.size):
        if theta[j] != 0.0:
            out[j] = abs(g[j] + tau[j] * np.sign(theta[j]))
        else:
            out[j] = max(abs(g[j]) - tau[j], 0.0)
    return out


def test_derived_residual_matches_the_stop_rules_written_by_hand():
    """The residual the solve derives from its penalty terms is the lasso's
    rule with weights lam_j (shift lam_j / 2, no rank-one term) bit for
    bit, and the refit's old rule, twice the half-gradient residual with
    weight 2 lam (||theta||_1 + 1), up to the rounding of that weight,
    which the solve forms as 2 (lam + lam ||theta||_1)."""
    rng = np.random.default_rng(21)
    lam, zeros = 0.7, 0
    for _ in range(50):
        theta = rng.standard_normal(12) * (rng.random(12) < 0.5)
        zeros += np.count_nonzero(theta == 0.0)
        scale = 2.0 * lam * (np.abs(theta).sum() + 1.0)
        g = 2.0 * scale * rng.standard_normal(12)
        lam_j = rng.uniform(0.0, 2.0, 12) * scale
        assert np.array_equal(derived_residual(theta, g, 0.5 * lam_j, 0.0),
                              by_hand(theta, g, lam_j))

        r = derived_residual(theta, g, np.full(12, lam), lam)
        old = 2.0 * (0.5 * by_hand(theta, g, np.full(12, scale)))
        assert np.all(np.abs(r - old) <= 2.0 * np.finfo(float).eps * (np.abs(g) + scale))
    assert 0 < zeros < 50 * 12


def test_refit_residual_is_the_recovered_subgradient_residual():
    """Half the derived refit residual is the residual
    |g/2 + lam (||theta||_1 + 1) w| with w from `_recover_subgradient`, up
    to the rounding of the weight, on the nonzeros and on the zeros where it
    is positive, and exactly 0 on the other zeros, where the recovered w
    leaves only roundoff."""
    rng = np.random.default_rng(21)
    lam, inside_count = 0.7, 0
    for _ in range(50):
        theta = rng.standard_normal(12) * (rng.random(12) < 0.5)
        g = 4.0 * lam * (np.abs(theta).sum() + 1.0) * rng.standard_normal(12)
        scale = lam * (np.abs(theta).sum() + 1.0)
        w, _ = solver._recover_subgradient(theta, 0.5 * g, lam)
        recovered = np.abs(0.5 * g + scale * w)
        halved = 0.5 * derived_residual(theta, g, np.full(12, lam), lam)
        inside = (theta == 0.0) & (np.abs(0.5 * g) <= scale)
        assert np.all((np.abs(halved - recovered) <= 2.0 * np.finfo(float).eps
                       * (np.abs(0.5 * g) + scale))[~inside])
        assert np.all(halved[inside] == 0.0)
        assert np.all(recovered[inside] <= 1e-15 * scale)
        inside_count += inside.sum()
    assert 0 < inside_count < 50 * 12


def refit_gram(H, c, theta0, lam):
    """The refit's Gram-form solve: `solver._gram_solve` from theta0 with
    shift and rank-one term lam."""
    return solver._gram_solve(H, c, theta0, np.full(c.size, lam), lam)


def fig2_p50_refit_problem():
    """The Gram form of the fig2_p50 m=306, seed-0 cell on the solver's
    selection, its lam, and the solved theta_hat."""
    data, res = _solve_cell("configs/fig2_p50.json", 306, 0)
    Xs = data.X[res.selection]
    return Xs.T @ Xs, Xs.T @ data.y[res.selection], res.config.lam, res.theta_hat


def test_sign_pattern_refit_matches_a_forced_completion_refit(monkeypatch, completion_runs):
    """The sign-pattern refit from a warm start with the wrong zeros and the
    completion, forced by switching the sign-pattern solve off, reach the
    same minimizer."""
    H, c, lam, theta_hat = fig2_p50_refit_problem()
    theta0 = theta_hat + 1e-3   # a warm start with the wrong zeros
    exact = refit_gram(H, c, theta0, lam)
    assert not completion_runs
    assert _refit_residual(H, c, exact, lam) <= 1e-8
    monkeypatch.setattr(solver, "_sign_pattern_solve", lambda *args: None)
    forced = refit_gram(H, c, theta0, lam)
    assert completion_runs == [0]
    assert _refit_residual(H, c, forced, lam) <= 1e-8
    assert np.array_equal(np.sign(exact), np.sign(forced))
    assert np.abs(exact - forced).max() <= 1e-12


def test_sign_pattern_refit_from_zero_is_exact(completion_runs):
    """theta0 = 0: the first pattern is the coordinates that violate
    stationarity at 0, and the answer is exact, not just within the bound."""
    H, c, lam, theta_hat = fig2_p50_refit_problem()
    cold = refit_gram(H, c, np.zeros(c.size), lam)
    assert not completion_runs
    assert _refit_residual(H, c, cold, lam) <= 1e-11
    assert np.array_equal(np.sign(cold), np.sign(theta_hat))
    assert np.abs(cold - theta_hat).max() <= 1e-12


def test_singular_sign_pattern_completes_exactly(completion_runs):
    """A duplicated column at lam = 0 makes every active system that holds
    both copies singular: the sign-pattern solve gives up, and the
    completion, which never activates the copy (its gradient entry is the
    original's, 0 once that is active), solves only positive definite
    systems and meets the bound."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 3))
    X = np.column_stack([X[:, 0], X])
    y = X @ np.array([0.5, 0.5, -1.0, 0.3]) + 0.1 * rng.standard_normal(30)
    H, c = X.T @ X, X.T @ y
    for theta0 in (np.zeros(4), np.array([0.4, 0.6, -1.0, 0.3])):
        assert solver._sign_pattern_solve(H, c, theta0, solver._BOUND, np.zeros(4), 0.0) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = refit_gram(H, c, theta0, 0.0)
        assert _refit_residual(H, c, theta, 0.0) <= 1e-8
    assert completion_runs == [0, 0]


def test_completion_at_bound_zero_terminates_and_warns():
    """A residual of exactly 0 is out of reach in floating point: the
    completion still stops, at the minimizer, and warns naming the residual."""
    H, c, lam, theta_hat = fig2_p50_refit_problem()
    with pytest.warns(RuntimeWarning, match="stopped with stationarity residual .* "
                                            "above the bound 0"):
        theta = solver._active_set_solve(H, c, 0.0, np.full(c.size, lam), lam)
    assert _refit_residual(H, c, theta, lam) <= 1e-8
    assert np.abs(theta - theta_hat).max() <= 1e-12


def refit_objective(H, c, theta, lam):
    """theta^T H theta - 2 c^T theta + lam (||theta||_1 + 1)^2, with the
    penalty the C-step loop's objective adds at the refit's terms."""
    return float(theta @ (H @ theta) - 2.0 * (c @ theta)
                 + solver._penalty(theta, np.full(c.size, lam), lam))


def _refit_objective_by_enumeration(H, c, lam):
    """The least refit objective theta^T H theta - 2 c^T theta
    + lam (||theta||_1 + 1)^2, found by trying every one of the 3^p sign
    patterns: each pattern's system is solved, and the solutions whose
    signs are the pattern's are candidates.  Some minimizer has a
    nonsingular system (along a null direction of a singular one the
    objective is constant until a coordinate reaches zero), so the least
    candidate objective is the minimum; a system singular to working
    precision is skipped, as its solution would be noise."""
    best = np.inf
    for s in itertools.product((-1.0, 0.0, 1.0), repeat=c.size):
        s = np.array(s)
        A = np.flatnonzero(s)
        K = H[np.ix_(A, A)] + lam * np.outer(s[A], s[A])
        if np.linalg.matrix_rank(K) < A.size:
            continue
        theta = np.zeros(c.size)
        theta[A] = np.linalg.solve(K, c[A] - lam * s[A])
        if np.array_equal(np.sign(theta), s):
            best = min(best, refit_objective(H, c, theta, lam))
    return best


def refit_problems():
    """Gram forms with m > p, m < p, and a duplicated column, each at
    several lam."""
    rng = np.random.default_rng(23)
    for m, p, duplicate in ((12, 5, False), (3, 5, False), (10, 4, True)):
        X = rng.standard_normal((m, p))
        if duplicate:
            X[:, 1] = X[:, 0]
        y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(m)
        for lam in (0.0, 0.05, 1.0, 20.0):
            yield X.T @ X, X.T @ y, lam


@pytest.mark.parametrize("path", ["default", "completion"])
def test_refit_objective_matches_a_brute_force_reference(monkeypatch, path):
    """`refit_gram`, cold and warm, by the default path and by the forced
    completion, reaches the least objective over all sign patterns."""
    if path == "completion":
        monkeypatch.setattr(solver, "_sign_pattern_solve", lambda *args: None)
    rng = np.random.default_rng(29)
    for H, c, lam in refit_problems():
        want = _refit_objective_by_enumeration(H, c, lam)
        for theta0 in (np.zeros(c.size), rng.standard_normal(c.size)):
            theta = refit_gram(H, c, theta0, lam)
            got = refit_objective(H, c, theta, lam)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (lam, got, want)
