import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from invexreg import baselines, solver
from invexreg.baselines import _lasso_solve, adaptive_huber_lasso, lasso, trimmed_lasso
from invexreg.bench import ExperimentConfig, certify_at_true_support, lambda_from_m
from invexreg.datagen import GenSpec, generate
from invexreg.model import CLEAN, OUTLIER, Dataset
from invexreg.solver import SolverConfig, _Gram, refit, solve_invex


def clean_data(rng, n=30, p=4, theta=None, sigma_e=0.1):
    theta = np.array([1.0, -0.5, 0.0, 0.25]) if theta is None else theta
    X = rng.standard_normal((n, p))
    y = X @ theta + sigma_e * rng.standard_normal(n)
    return Dataset(X=X, y=y, labels=np.array([CLEAN] * n), theta_star=theta)


def _lasso_cd(X, y, lam, iters=20000, tol=1e-12, sample_weights=None,
              weights=None):
    """Independent coordinate-descent solver for
    sum_i w_i r_i^2 + lam sum_j weights_j |theta_j| (w and weights default to one)."""
    n, p = X.shape
    sw = np.ones(n) if sample_weights is None else np.asarray(sample_weights, float)
    lam_j = lam * (np.ones(p) if weights is None else np.asarray(weights, float))
    theta = np.zeros(p)
    col_sq = (sw[:, None] * X * X).sum(axis=0)
    r = y.copy()
    for _ in range(iters):
        delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = theta[j]
            rho = (sw * X[:, j]) @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam_j[j] / 2.0, 0.0) / col_sq[j]
            if new != old:
                r += X[:, j] * (old - new)
                theta[j] = new
                delta = max(delta, abs(new - old))
        if delta <= tol:
            break
    return theta


def test_lasso_zero_lambda_is_least_squares():
    rng = np.random.default_rng(0)
    data = clean_data(rng)
    theta = lasso(data, 0.0)
    ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    assert np.abs(theta - ols).max() <= 1e-6


def test_lasso_kill_condition():
    rng = np.random.default_rng(1)
    data = clean_data(rng)
    lam = 2.0 * np.abs(data.X.T @ data.y).max()
    theta = lasso(data, lam)
    assert np.abs(theta).max() == 0.0


def test_lasso_matches_coordinate_descent():
    rng = np.random.default_rng(2)
    data = clean_data(rng, n=14, p=3, theta=np.array([0.7, 0.0, -0.4]))
    lam = 0.9
    th_a = lasso(data, lam)
    th_b = _lasso_cd(data.X, data.y, lam)
    obj = lambda t: float(np.sum((data.y - data.X @ t) ** 2) + lam * np.abs(t).sum())
    assert abs(obj(th_a) - obj(th_b)) <= 1e-8 * max(1.0, obj(th_b))


def test_lasso_descends_from_zero():
    rng = np.random.default_rng(3)
    data = clean_data(rng)
    lam = 0.5
    theta = lasso(data, lam)
    obj = lambda t: float(np.sum((data.y - data.X @ t) ** 2) + lam * np.abs(t).sum())
    assert obj(theta) <= obj(np.zeros(data.p))


def grossly_corrupted():
    """clean_data on 40 rows with y[0] = 1e6."""
    data = clean_data(np.random.default_rng(5), n=40)
    y = data.y.copy()
    y[0] = 1e6
    return Dataset(X=data.X, y=y, labels=data.labels, theta_star=data.theta_star)


def test_adahuber_bounded_under_gross_corruption():
    corrupted = grossly_corrupted()
    theta = adaptive_huber_lasso(corrupted, 0.4)
    assert np.linalg.norm(theta) <= 10.0 * np.linalg.norm(corrupted.theta_star)


@pytest.mark.parametrize("lam", [0.4, 5.0])
def test_refit_meets_the_roundoff_floor_under_gross_corruption(lam):
    """With y[0] = 1e6 the roundoff of the refit's full gradient keeps its
    residual above the bound `solver._BOUND` = 2e-10: the refit stops at the
    solve's floor 8 eps ||c||_inf instead, without the roundoff warning."""
    data = grossly_corrupted()
    H, c = weighted_gram_form(data.X, data.y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = refit(data, np.arange(data.n), lam)
    g = 2.0 * (H @ theta - c)
    tau = np.full(data.p, 2.0 * lam * (np.abs(theta).sum() + 1.0))
    assert solver._BOUND < l1_residual(theta, g, tau) <= solver._ROUNDOFF * np.abs(c).max()


def test_adahuber_sane_on_clean_data():
    rng = np.random.default_rng(6)
    data = clean_data(rng, n=200, sigma_e=0.3)  # noise floor dominates bias
    lam = 0.5
    err_l = np.linalg.norm(lasso(data, lam) - data.theta_star)
    err_h = np.linalg.norm(adaptive_huber_lasso(data, lam)
                           - data.theta_star)
    assert err_h <= 2.0 * err_l + 1e-6


def test_median_matches_numpy_bit_for_bit():
    """The MAD scale's median is np.median's, sign of zero included."""
    rng = np.random.default_rng(12)
    arrays = [np.array([1.0, -0.0, 0.0, 2.0, -3.0]), np.array([-0.0, 0.0, -0.0, 0.0])]
    for n in [*range(1, 41), 1106, 1107]:
        a = rng.standard_normal(n)
        arrays += [a, np.abs(a), rng.integers(-2, 3, n).astype(float)]  # the last has ties
    for a in arrays:
        assert baselines._median(a).tobytes() == np.median(a).tobytes(), a.size


def test_trimmed_zero_trim_is_lasso():
    rng = np.random.default_rng(7)
    data = clean_data(rng)
    theta, kept = trimmed_lasso(data, 0.5, 0)
    assert kept.all()
    assert np.array_equal(theta, lasso(data, 0.5))


def test_trimmed_drops_gross_outlier():
    rng = np.random.default_rng(8)
    data = clean_data(rng, n=25)
    y = data.y.copy()
    y[5] += 50.0
    labels = np.where(np.arange(data.n) == 5, OUTLIER, CLEAN)
    corrupted = Dataset(X=data.X, y=y, labels=labels, theta_star=data.theta_star)
    theta, kept = trimmed_lasso(corrupted, 0.5, 1)
    assert not kept[5]
    assert kept.sum() == 24


def test_trimmed_kept_size_invariant():
    data = generate(GenSpec(p=5, k=2, r=30, n_outliers=10, seed=9, sigma_e=0.1))
    theta, kept = trimmed_lasso(data, 0.8, 10)
    assert kept.sum() == data.n - 10


@pytest.mark.parametrize("method", ["trimmed", "invex"])
def test_c_steps_stop_unconverged_on_a_cycle(monkeypatch, method):
    """A b-step forced to alternate between two kept sets A and B: the
    first kept set that comes back is a cycle, and the C-step loop stops
    there unconverged, with the last fit and the set it was fitted on, B.
    invex reports converged=False; the trimmed lasso warns."""
    data = clean_data(np.random.default_rng(11), n=20)
    keep = 15
    A, B = np.zeros(data.n), np.zeros(data.n)
    A[:keep], B[-keep:] = 1.0, 1.0
    calls = []
    monkeypatch.setattr(solver, "_keep_smallest",
                        lambda r, k: calls.append(k) or (A if len(calls) % 2 else B))
    if method == "invex":
        res = solve_invex(data, SolverConfig(m=keep, lam=0.5))
        assert not res.converged and res.outer_iters == 2
        kept = res.b_rounded
    else:
        with pytest.warns(UserWarning, match="did not reach a fixed point in 3 rounds"):
            _, kept = trimmed_lasso(data, 0.5, data.n - keep)
    assert set(calls) == {keep}
    assert np.array_equal(kept, B.astype(kept.dtype))


@pytest.mark.parametrize("method", ["trimmed", "invex"])
def test_c_steps_stop_unconverged_at_the_round_cap(monkeypatch, method):
    """A b-step that returns a kept set never seen before on every call:
    with the round cap at 3 the C-step loop stops there unconverged.
    invex reports converged=False after 3 rounds; the trimmed lasso warns."""
    data = clean_data(np.random.default_rng(11), n=20)
    keep = 15
    calls = []

    def rotated(r, k):
        calls.append(k)
        return np.roll(np.arange(data.n) < k, len(calls)).astype(float)

    monkeypatch.setattr(solver, "_MAX_ROUNDS", 3)
    monkeypatch.setattr(solver, "_keep_smallest", rotated)
    if method == "invex":
        res = solve_invex(data, SolverConfig(m=keep, lam=0.5))
        assert not res.converged and res.outer_iters == 3
        assert len(res.objective_trace) == 4
    else:
        with pytest.warns(UserWarning, match="did not reach a fixed point in 3 rounds"):
            trimmed_lasso(data, 0.5, data.n - keep)
    assert set(calls) == {keep}


def test_one_round_cap_stops_huber_stages_and_both_c_step_loops(monkeypatch,
                                                                 lasso_solves):
    """`solver._MAX_ROUNDS`, set once, caps every loop of solves: at 1 each
    Huber stage makes one solve, and a stage that has not settled warns and
    goes on with its last iterate; invex stops unconverged after one round,
    and the trimmed lasso warns."""
    monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    stages, real = [], baselines._huber_stage
    monkeypatch.setattr(baselines, "_huber_stage",
                        lambda *args: stages.append(args) or real(*args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adaptive_huber_lasso(data, 0.6)
    assert len(lasso_solves) == 1 + len(stages)   # stage 0's lasso, one per stage
    assert caught and {str(w.message) for w in caught} == {
        "adaptive Huber lasso: a Huber stage did not settle in 1 partition rounds; "
        "using the last iterate"}
    res = solve_invex(data, SolverConfig(m=40, lam=0.6))
    assert not res.converged and res.outer_iters == 1
    with pytest.warns(UserWarning, match="did not reach a fixed point in 1 rounds"):
        trimmed_lasso(data, 0.6, 20)


def test_trimmed_validates_trim_count():
    rng = np.random.default_rng(10)
    data = clean_data(rng, n=5)
    with pytest.raises(ValueError):
        trimmed_lasso(data, 0.1, 5)


def test_baselines_deterministic():
    data = generate(GenSpec(p=5, k=2, r=25, n_outliers=8, seed=11, sigma_e=0.1))
    lam = 0.6
    assert np.array_equal(lasso(data, lam), lasso(data, lam))
    # the Huber scale cycles on this fixture and hits its round cap
    with pytest.warns(UserWarning, match="did not settle"):
        a1 = adaptive_huber_lasso(data, lam)
    with pytest.warns(UserWarning, match="did not settle"):
        a2 = adaptive_huber_lasso(data, lam)
    assert np.array_equal(a1, a2)
    t1 = trimmed_lasso(data, lam, 8)
    t2 = trimmed_lasso(data, lam, 8)
    assert np.array_equal(t1[0], t2[0]) and np.array_equal(t1[1], t2[1])


def test_baselines_reject_a_bad_argument_by_name():
    """Each fit checks its lam, and the trimmed lasso its trim_count, before
    it solves anything: a non-integer trim_count, such as the 3.0 a JSON
    config gives for 3, fails here, not after a lasso round on a slice
    index.  numpy integers pass."""
    data = clean_data(np.random.default_rng(10), n=5)
    fits = (lambda lam: lasso(data, lam), lambda lam: adaptive_huber_lasso(data, lam),
            lambda lam: trimmed_lasso(data, lam, 0))
    for lam in (-0.1, float("nan"), float("inf"), True):
        for fit in fits:
            with pytest.raises(ValueError,
                               match=re.escape(f"lam must be finite and >= 0, got {lam!r}")):
                fit(lam)
    for trim_count in (-1, 3.0, 2.5, True, "3"):
        with pytest.raises(ValueError, match=re.escape(
                f"trim_count must be an integer >= 0, got {trim_count!r}")):
            trimmed_lasso(data, 0.5, trim_count)
    trimmed_lasso(data, np.int64(1), np.int64(3))


def weighted_gram_form(X, y, sample_weights=None):
    """H = X^T diag(sw) X and c = X^T (sw y), formed directly from every
    row (sw defaults to one)."""
    sw = np.ones(X.shape[0]) if sample_weights is None else sample_weights
    return X.T @ (sw[:, None] * X), X.T @ (sw * y)


def weighted_lasso(X, y, lam, weights=None, sample_weights=None, theta0=None):
    """min sum_i sw_i (y_i - <X_i, theta>)^2 + lam sum_j weights_j |theta_j|
    by `_lasso_solve` on `weighted_gram_form`, from theta0 (zeros by
    default); sample and coordinate weights default to one."""
    p = X.shape[1]
    H, c = weighted_gram_form(X, y, sample_weights)
    lam_j = lam * (np.ones(p) if weights is None else weights)
    return _lasso_solve(H, c, lam_j, np.zeros(p) if theta0 is None else theta0)


def weighted_problem(n, p):
    rng = np.random.default_rng(12 + p)
    X = rng.standard_normal((n, p))
    theta = np.zeros(p)
    theta[:3] = [1.5, -1.0, 0.5]
    y = X @ theta + 0.1 * rng.standard_normal(n)
    sw = rng.uniform(0.2, 2.0, n)
    cw = rng.uniform(0.5, 2.0, p)
    return rng, X, y, sw, cw


@pytest.fixture
def solve_path(request, monkeypatch):
    """The path of `solver._gram_solve` under test: "default" leaves it as
    it is, "completion" switches the sign-pattern solve off, so that every
    solve runs the completion."""
    if request.param == "completion":
        monkeypatch.setattr(solver, "_sign_pattern_solve", lambda *args: None)
    return request.param


# (n, p) with n > p and n < p, on the default path and the forced completion
BOTH_PATHS = [pytest.param(n, p, path, id=f"{n}-{p}{suffix}")
              for path, suffix in (("default", ""), ("completion", "-completion"))
              for n, p in ((40, 6), (8, 15))]


@pytest.mark.parametrize("n,p,solve_path", BOTH_PATHS, indirect=["solve_path"])
def test_weighted_lasso_matches_weighted_coordinate_descent(n, p, solve_path,
                                                            completion_runs):
    """The Gram-form solve with sample and coordinate weights solves the same
    problem as an independent weighted coordinate descent, for n > p and
    n < p, by either path."""
    _, X, y, sw, cw = weighted_problem(n, p)
    lam = 0.8
    th_f = weighted_lasso(X, y, lam, weights=cw, sample_weights=sw)
    th_c = _lasso_cd(X, y, lam, sample_weights=sw, weights=cw)
    assert np.count_nonzero(th_c) > 0
    assert np.abs(th_f - th_c).max() <= 1e-8
    if solve_path == "completion":
        assert completion_runs == [0]


@pytest.mark.parametrize("n,p,solve_path", BOTH_PATHS, indirect=["solve_path"])
def test_lasso_from_random_start_matches_coordinate_descent(n, p, solve_path,
                                                            completion_runs):
    """A start point changes where the solve begins, not the minimizer it
    reaches, by either path."""
    rng, X, y, sw, cw = weighted_problem(n, p)
    lam = 0.8
    theta0 = 3.0 * rng.standard_normal(p)
    th_f = weighted_lasso(X, y, lam, weights=cw, sample_weights=sw, theta0=theta0)
    th_c = _lasso_cd(X, y, lam, sample_weights=sw, weights=cw)
    assert np.count_nonzero(th_c) > 0
    assert np.abs(th_f - th_c).max() <= 1e-8
    if solve_path == "completion":
        assert completion_runs == [0]


def test_cold_lasso_is_exact_without_the_completion(completion_runs):
    """From theta = 0 with n > p, the sign-pattern solve finds the lasso
    minimizer; the completion does not run."""
    rng = np.random.default_rng(19)
    theta_star = np.array([1.0, -0.5, 0.0, 0.25, 0.0, 0.0, 0.8, 0.0])
    data = clean_data(rng, n=60, p=8, theta=theta_star)
    lam = 3.0
    theta = lasso(data, lam)
    th_c = _lasso_cd(data.X, data.y, lam)
    assert not completion_runs
    assert 0 < np.count_nonzero(th_c) < data.p
    assert np.abs(theta - th_c).max() <= 1e-8


def spy_on_gram_solves(monkeypatch, completion_runs, context=dict):
    """Record every `solver._gram_solve` call, the one solve behind each
    lasso, each exact Huber-stage round (through `baselines._lasso_solve`)
    and each round of the C-step loop (`solver._c_steps`, which runs the
    trimmed lasso and invex), as a dict of its H, c, start theta0,
    penalty terms shift and rank_one, the theta returned and the runs of
    the completion it made, and the entries of `context()`."""
    calls = []
    real = solver._gram_solve

    def recording(H, c, theta0, shift, rank_one):
        runs_before = len(completion_runs)
        theta = real(H, c, theta0, shift, rank_one)
        calls.append({"H": H, "c": c, "theta0": np.array(theta0), "shift": shift, "rank_one": rank_one, "theta": theta,
                      "completions": len(completion_runs) - runs_before, **context()})
        return theta

    for module in (baselines, solver):
        monkeypatch.setattr(module, "_gram_solve", recording)
    return calls


@pytest.fixture
def lasso_solves(monkeypatch, completion_runs):
    """Every Gram-form solve of a fit, as `spy_on_gram_solves` records it."""
    return spy_on_gram_solves(monkeypatch, completion_runs)


@pytest.mark.parametrize("method", ["adahuber", "trimmed"])
def test_repeated_solves_start_from_the_previous_theta(lasso_solves, method):
    """The first lasso solve starts cold; every later one (each adahuber
    Huber-stage round after stage 0, each trimmed round after the first)
    starts from the theta the previous solve returned."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    lam = 0.6
    if method == "adahuber":
        adaptive_huber_lasso(data, lam)
    else:
        trimmed_lasso(data, lam, 20)
    assert len(lasso_solves) >= 3
    assert not lasso_solves[0]["theta0"].any()
    for previous, solve in zip(lasso_solves, lasso_solves[1:]):
        assert np.array_equal(solve["theta0"], previous["theta"])


def test_baselines_make_no_svd_call(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    # norm(X, 2) looks svd up in numpy's private linalg module
    private = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for module in (np.linalg, private):
        monkeypatch.setattr(module, "svd", no_svd)
    data = generate(GenSpec(p=5, k=2, r=25, n_outliers=8, seed=11, sigma_e=0.1))
    lasso(data, 0.6)
    with pytest.warns(UserWarning, match="did not settle"):
        adaptive_huber_lasso(data, 0.6)
    trimmed_lasso(data, 0.6, 8)
    refit(data, np.arange(data.n), 0.6)


@pytest.mark.parametrize("where", ["y", "X"])
@pytest.mark.parametrize("method", ["lasso", "adahuber", "trimmed", "invex"])
def test_baselines_reject_non_finite_data(method, where):
    """The fits do not scan their data: Dataset refuses a NaN or inf at
    construction, so no fit can be handed one."""
    rng = np.random.default_rng(13)
    data = clean_data(rng)
    X, y = data.X.copy(), data.y.copy()
    if where == "y":
        y[3] = np.nan
    else:
        X[2, 1] = np.inf
    run = {"lasso": lambda d: lasso(d, 0.5),
           "adahuber": lambda d: adaptive_huber_lasso(d, 0.5),
           "trimmed": lambda d: trimmed_lasso(d, 0.5, 3),
           "invex": lambda d: solve_invex(d, SolverConfig(m=d.n - 3, lam=0.5))}[method]
    with pytest.raises(ValueError, match=f"^{where} must be finite"):
        run(Dataset(X=X, y=y, labels=data.labels, theta_star=data.theta_star))


@pytest.mark.parametrize("kind", ["zero_one", "ones"])
def test_weighted_gram_matches_direct_product(kind):
    """The carried Gram starts empty, and at all weights 1 it is X^T X
    itself, bit for bit.  Downdated from there over the rows with w = 0 it
    equals X^T W X formed from every row, and is exactly symmetric.  The
    Gram then stands at (H, w)."""
    rng = np.random.default_rng(18)
    n, p = 60, 7
    X = rng.standard_normal((n, p))
    w = np.ones(n)
    if kind == "zero_one":
        w[rng.random(n) < 0.3] = 0.0
    gram = _Gram(X)
    assert not gram.H.any() and not gram.w.any() and gram.H.shape == (p, p)
    assert np.array_equal(gram.at(np.ones(n)), X.T @ X)
    H = gram.at(w)
    H_direct = X.T @ (w[:, None] * X)
    assert np.array_equal(H, H.T)
    assert np.abs(H - H_direct).max() <= 1e-12 * np.abs(H_direct).max()
    assert gram.H is H and gram.w is w


def test_trimmed_first_round_is_lasso(lasso_solves):
    """The first trimmed round drops no row, so the empty Gram with every
    row added is X^T X bit for bit, and the round returns the lasso estimate
    bit for bit."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    trimmed_lasso(data, 0.6, 20)
    assert len(lasso_solves) >= 2
    assert np.array_equal(lasso_solves[0]["H"], data.X.T @ data.X)
    assert np.array_equal(lasso_solves[0]["theta"], lasso(data, 0.6))


@pytest.fixture
def gram_updates(monkeypatch, completion_runs):
    """Record, per Gram-form solve (`spy_on_gram_solves`), also the weights
    the fit's carried Gram stands at, the indices of the rows `_Gram.at`
    read from X since the previous solve, and the current Huber scale
    (None outside a Huber stage)."""
    grams, touched, stage = [], [], {"delta": None}
    real_init = solver._Gram.__init__
    real_stage = baselines._huber_stage

    class Rows(np.ndarray):
        """X as `_Gram.at` sees it: each row index read is recorded, and the
        rows come back as a plain array."""
        def __getitem__(self, rows):
            touched.extend(np.asarray(rows).tolist())
            return np.asarray(self)[rows]

    def spy_init(gram, X):
        real_init(gram, X.view(Rows))
        grams.append(gram)

    def spy_stage(X, y, gram, theta, delta, lam_j):
        stage["delta"] = delta
        return real_stage(X, y, gram, theta, delta, lam_j)

    def context():
        (gram,) = grams
        rows = sorted(touched)
        touched.clear()
        return {"w": gram.w, "rows": rows, "delta": stage["delta"]}

    monkeypatch.setattr(solver._Gram, "__init__", spy_init)
    monkeypatch.setattr(baselines, "_huber_stage", spy_stage)
    return spy_on_gram_solves(monkeypatch, completion_runs, context)


def changed_rows(w_prev, w):
    return np.flatnonzero(w_prev != w).tolist()


def test_warm_adahuber_passes_multiply_only_the_downweighted_rows(gram_updates):
    """One Gram is carried through every Huber round and stage.  Each
    round's weights are 0/1, every weight-0 row lies beyond delta at the
    round's start and every weight-1 row within it, and the round touches
    exactly the rows whose weight changed since the previous solve, in all
    far fewer than it gives weight 0.  The cold stage-0 fit starts the
    empty Gram at weight 1 everywhere, so it touches every row once."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    adaptive_huber_lasso(data, 0.6)
    first, rounds = gram_updates[0], gram_updates[1:]
    assert first["delta"] is None and np.all(first["w"] == 1.0)
    assert first["rows"] == list(range(data.n))
    assert len(rounds) >= 3
    w_prev, touched, dropped = first["w"], 0, 0
    for solve in rounds:
        w, delta = solve["w"], solve["delta"]
        assert np.all((w == 0.0) | (w == 1.0))
        assert solve["rows"] == changed_rows(w_prev, w)
        a = np.abs(data.y - data.X @ solve["theta0"])
        assert np.all(a[w == 0.0] > delta) and np.all(a[w == 1.0] <= delta)
        w_prev, touched, dropped = w, touched + len(solve["rows"]), dropped + (w == 0).sum()
    assert 0 < touched < dropped


def test_trimmed_rounds_touch_only_the_rows_that_swap(gram_updates):
    """The first trimmed round keeps every row and adds each to the empty
    Gram once; each later round updates the carried Gram by exactly the rows
    that swapped into or out of the kept set since the previous round, in
    all fewer than it drops."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    trimmed_lasso(data, 0.6, 20)
    assert np.all(gram_updates[0]["w"] == 1.0)
    assert gram_updates[0]["rows"] == list(range(data.n))
    assert len(gram_updates) >= 3
    touched = 0
    for previous, solve in zip(gram_updates, gram_updates[1:]):
        w = solve["w"]
        assert np.all((w == 0.0) | (w == 1.0)) and (w == 0.0).sum() == 20
        assert solve["rows"] == changed_rows(previous["w"], w)
        touched += len(solve["rows"])
    assert 0 < touched < 20 * (len(gram_updates) - 1)


@pytest.mark.parametrize("method", ["adahuber", "trimmed", "invex"])
def test_carried_gram_matches_the_direct_product_after_every_round(gram_updates,
                                                                   method):
    """After every round the carried H is exactly symmetric and within
    1e-12 relative of X^T W X formed from every row, c equals X^T (w y),
    plus delta X^T s in a Huber round, formed directly, and the returned
    theta meets the solve's stop rule, for the fit's penalty, on that
    directly formed (H, c)."""
    data = generate(GenSpec(p=30, k=5, r=200, n_outliers=100, seed=3, sigma_e=0.1))
    X, y = data.X, data.y
    if method == "adahuber":
        adaptive_huber_lasso(data, 2.0)
    elif method == "trimmed":
        trimmed_lasso(data, 2.0, 100)
    else:
        solve_invex(data, SolverConfig(m=data.n - 100, lam=2.0))
    assert len(gram_updates) >= 3
    for solve in gram_updates:
        w, delta, H, theta = solve["w"], solve["delta"], solve["H"], solve["theta"]
        v = w * y
        if delta is not None:
            r = y - X @ solve["theta0"]
            s = np.where(np.abs(r) > delta, np.sign(r), 0.0)
            assert np.array_equal(w, (s == 0.0).astype(float))
            v = v + delta * s
        H_direct, c_direct = X.T @ (w[:, None] * X), X.T @ v
        assert np.array_equal(H, H.T)
        assert np.abs(H - H_direct).max() <= 1e-12 * np.abs(H_direct).max()
        assert np.abs(solve["c"] - c_direct).max() <= 1e-12 * np.abs(c_direct).max()
        assert stop_rule_residual(H_direct, c_direct, solve) <= stop_bound(solve["c"])


def test_baselines_pinned_output_fig2_p100_seed0():
    """Pins the three baselines on the largest-m fig2_p100 cell, data seed 0.
    The expected values in tests/data were recorded from an earlier commit
    (named in the file); a change that claims to keep the baselines' output
    must keep them, and the lasso bit for bit."""
    root = Path(__file__).resolve().parent
    want = json.loads((root / "data" / "baseline_pin_fig2_p100_seed0.json").read_text())
    cfg = ExperimentConfig.from_json(root.parent / want["config"])
    cell = next(c for c in cfg.cells() if c["m"] == want["m"])
    data = generate(GenSpec(p=cfg.p, k=cfg.k, r=cell["r"],
                            n_outliers=cell["n_outliers"], seed=want["seed"],
                            sigma_e=cfg.sigma_e, max_resamples=cfg.max_resamples,
                            rho_min=cfg.rho_min))
    lam = lambda_from_m(want["m"], cfg.p, cfg.c_lambda)
    assert np.array_equal(lasso(data, lam), np.array(want["lasso"]))
    got = {"adahuber": adaptive_huber_lasso(data, lam)}
    got["trimmed"], kept = trimmed_lasso(
        data, lam, cell["n_outliers"])
    assert np.flatnonzero(kept).tolist() == want["trimmed_kept"]
    for method, theta in got.items():
        pinned = np.array(want[method])
        assert np.array_equal(np.flatnonzero(theta), np.flatnonzero(pinned))
        assert np.abs(theta - pinned).max() <= 1e-12


def l1_residual(theta, g, lam_j):
    """The largest subgradient residual of theta for a loss with gradient g
    plus sum_j lam_j |theta_j|."""
    resid = np.where(theta != 0.0, np.abs(g + lam_j * np.sign(theta)),
                     np.maximum(np.abs(g) - lam_j, 0.0))
    return resid.max(initial=0.0)


def stop_bound(c):
    """The one stop bound of `solver._gram_solve` on a Gram form with c:
    `solver._BOUND`, or the roundoff floor when that is larger."""
    return max(solver._BOUND, solver._ROUNDOFF * np.abs(c).max())


def stop_rule_residual(H, c, solve):
    """The largest subgradient residual of a recorded solve's theta on
    (H, c), for its penalty rank_one ||theta||_1^2 + 2 shift^T |theta|,
    whose subgradient weights are 2 (shift + rank_one ||theta||_1)."""
    theta = solve["theta"]
    tau = 2.0 * (solve["shift"] + solve["rank_one"] * np.abs(theta).sum())
    return l1_residual(theta, 2.0 * (H @ theta - c), tau)


def stop_residual(X, y, lam, theta, weights=None, sample_weights=None):
    """The largest subgradient residual of theta on the Gram form
    `weighted_lasso` solves."""
    H, c = weighted_gram_form(X, y, sample_weights)
    lam_j = np.full(X.shape[1], lam) if weights is None else lam * np.asarray(weights)
    return l1_residual(theta, 2.0 * (H @ theta - c), lam_j)


@pytest.mark.parametrize("n,p", [(40, 6), (8, 15)])
def test_warm_start_with_opposite_signs_matches_coordinate_descent(n, p):
    """Every guessed sign is wrong: the corrections or the completion still
    reach the minimizer."""
    _, X, y, sw, cw = weighted_problem(n, p)
    lam = 0.8
    th_c = _lasso_cd(X, y, lam, sample_weights=sw, weights=cw)
    theta0 = -np.sign(th_c) - 0.5 * (th_c == 0)
    th_f = weighted_lasso(X, y, lam, weights=cw, sample_weights=sw, theta0=theta0)
    assert np.count_nonzero(th_c) > 0
    assert np.abs(th_f - th_c).max() <= 1e-8


def test_warm_start_missing_nonzeros_adds_them_without_the_completion(completion_runs):
    """A start whose zeros hide true nonzeros reaches the minimizer by adding
    the coordinates that violate the stop rule, with no completion run."""
    _, X, y, sw, cw = weighted_problem(40, 6)
    lam = 0.8
    th_c = _lasso_cd(X, y, lam, sample_weights=sw, weights=cw)
    support = np.flatnonzero(th_c)
    assert support.size >= 2
    theta0 = th_c.copy()
    theta0[support[1:]] = 0.0
    th_f = weighted_lasso(X, y, lam, weights=cw, sample_weights=sw, theta0=theta0)
    assert not completion_runs
    assert np.abs(th_f - th_c).max() <= 1e-8
    assert stop_residual(X, y, lam, th_f, cw, sw) <= solver._BOUND


def test_warm_start_on_singular_support_completes_exactly(completion_runs):
    """Duplicated columns make H_AA singular, so the sign-pattern solve
    gives up; the completion, from theta = 0, solves only positive definite
    systems and returns a theta that passes the stop rule.  Integer entries
    keep the Gram exact, so H_AA is singular to the last bit."""
    rng = np.random.default_rng(17)
    X = rng.integers(-3, 4, size=(30, 3)).astype(float)
    X[:, 1] = X[:, 0]
    y = X @ np.array([1.0, 1.0, -0.5]) + 0.05 * rng.standard_normal(30)
    lam = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = weighted_lasso(X, y, lam, theta0=np.array([1.0, 1.0, 0.0]))
    assert completion_runs == [0]
    assert stop_residual(X, y, lam, theta) <= solver._BOUND


def test_completion_exchanges_a_dependent_column_along_the_null_direction(
        completion_runs):
    """Column 2 is the mean of columns 0 and 1 and is penalized less.  Once
    both are active it violates stationarity with a Schur complement of
    exactly 0 (the entries are integers and halves, so the Gram is exact):
    the completion moves along the null direction until column 1 reaches
    zero and drops, solving no singular system, and ends at the lasso
    minimum that coordinate descent reaches."""
    rng = np.random.default_rng(0)
    X = rng.integers(-3, 4, size=(30, 2)).astype(float)
    X = np.column_stack([X, 0.5 * (X[:, 0] + X[:, 1])])
    y = X[:, :2] @ np.array([2.0, 1.0]) + 0.05 * rng.standard_normal(30)
    lam, cw = 5.0, np.array([1.0, 1.0, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = weighted_lasso(X, y, lam, weights=cw)
    assert completion_runs == [0]
    assert theta[1] == 0.0 and theta[0] != 0.0 and theta[2] != 0.0
    assert stop_residual(X, y, lam, theta, cw) <= solver._BOUND
    obj = lambda t: float(np.sum((y - X @ t) ** 2) + lam * cw @ np.abs(t))
    assert obj(theta) <= obj(_lasso_cd(X, y, lam, weights=cw)) + 1e-10


@pytest.mark.parametrize("method", ["adahuber", "trimmed"])
def test_warm_solves_mostly_skip_the_completion_and_pass_the_stop_rule(lasso_solves, method):
    """Warm-started solves run the completion less often than they are made,
    and every theta returned, by either path, meets the stop rule of the
    system it solved."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    lam = 0.6
    if method == "adahuber":
        adaptive_huber_lasso(data, lam)
    else:
        trimmed_lasso(data, lam, 20)
    warm = [s for s in lasso_solves if s["theta0"].any()]
    assert len(warm) >= 2
    assert sum(s["completions"] for s in warm) < len(warm)
    for solve in lasso_solves:
        assert solve["rank_one"] == 0.0
        assert stop_rule_residual(solve["H"], solve["c"], solve) <= stop_bound(solve["c"])


def test_every_l1_solve_stops_at_the_one_bound(lasso_solves):
    """The lasso, the adaptive Huber lasso, the trimmed lasso, the invex
    C-steps and the certificate's refit all stop by one rule: every theta
    `solver._gram_solve` returns has a largest `solver._l1_residual` of at
    most max(`solver._BOUND`, `solver._ROUNDOFF` ||c||_inf)."""
    data = generate(GenSpec(p=8, k=3, r=40, n_outliers=20, seed=15, sigma_e=0.1))
    lam = 0.6
    counts = [0]
    lasso(data, lam)
    counts.append(len(lasso_solves))
    adaptive_huber_lasso(data, lam)
    counts.append(len(lasso_solves))
    trimmed_lasso(data, lam, 20)
    counts.append(len(lasso_solves))
    res = solve_invex(data, SolverConfig(m=40, lam=lam))
    counts.append(len(lasso_solves))
    certify_at_true_support(data, res.b_rounded, lam)
    counts.append(len(lasso_solves))
    assert np.all(np.diff(counts) >= 1)
    for solve in lasso_solves:
        _, resid = solver._l1_residual(solve["H"], solve["c"], solve["theta"],
                                       solve["shift"], solve["rank_one"])
        assert resid.max(initial=0.0) <= stop_bound(solve["c"])


def huber_lasso_residual(X, y, theta, delta, lam_j):
    """The largest stationarity residual of theta for
    sum_i rho(r_i) + sum_j lam_j |theta_j|, rho(r) = r^2 for |r| <= delta and
    2 delta |r| - delta^2 beyond: the loss gradient is -2 X^T psi(r) with
    psi(r) = r on the quadratic branch and delta sign(r) beyond it."""
    r = y - X @ theta
    psi = np.where(np.abs(r) <= delta, r, delta * np.sign(r))
    return l1_residual(theta, -2.0 * X.T @ psi, lam_j)


def test_exact_huber_stages_are_stationary(monkeypatch):
    """On a small fixture, 8 outliers among 33 rows, every finite Newton
    stage ends without a warning, at a theta that is stationary for its
    Huber-lasso objective within the lasso's stop rule."""
    data = generate(GenSpec(p=5, k=2, r=25, n_outliers=8, seed=0, sigma_e=0.1))
    lam = 2.0
    stages = []
    real = baselines._huber_stage

    def recording(X, y, gram, theta, delta, lam_j):
        out = real(X, y, gram, theta, delta, lam_j)
        stages.append((delta, lam_j, out))
        return out

    monkeypatch.setattr(baselines, "_huber_stage", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = adaptive_huber_lasso(data, lam)
    assert np.array_equal(theta, stages[-1][-1])
    assert len(stages) >= 3
    for delta, lam_j, out in stages:
        assert huber_lasso_residual(data.X, data.y, out, delta, lam_j) <= solver._BOUND


def test_huber_stage_damps_a_newton_step_that_does_not_lower_the_objective(
        lasso_solves, completion_runs):
    """A fixture where undamped finite Newton cycles between partitions:
    some round's solution does not lower the objective, so the next round
    starts a halved step towards it, and every stage still settles with no
    warning and no completion run.  The Huber scale itself cycles here and
    hits its round cap, which is its own warning."""
    data = generate(GenSpec(p=8, k=2, r=25, n_outliers=8, seed=14, sigma_e=0.1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        theta = adaptive_huber_lasso(data, 10.0)
    assert [str(w.message) for w in caught] == [
        "adaptive Huber lasso: the Huber scale did not settle in 12 rounds; using the last one"]
    assert np.all(np.isfinite(theta))
    assert not completion_runs
    damped = 0
    for previous, solve in zip(lasso_solves, lasso_solves[1:]):
        start, solution, nxt = previous["theta0"], previous["theta"], solve["theta0"]
        if np.array_equal(nxt, solution):
            continue
        damped += 1
        step = solution - start
        halvings = round(-np.log2(np.dot(nxt - start, step) / np.dot(step, step)))
        assert halvings >= 1
        assert np.array_equal(nxt, start + 0.5 ** halvings * step)
    assert damped >= 1


def test_adahuber_warns_when_the_huber_scale_hits_its_round_cap():
    data = generate(GenSpec(p=5, k=2, r=25, n_outliers=8, seed=11, sigma_e=0.1))
    with pytest.warns(UserWarning, match="scale did not settle in 12 rounds"):
        theta = adaptive_huber_lasso(data, 0.6)
    assert np.all(np.isfinite(theta))
