import json

import numpy as np
import pytest

from invexreg.datagen import GenSpec, generate
from invexreg.model import CLEAN, OUTLIER, Dataset, to_jsonable
from invexreg.oracle import (CombinatorialBlowup, enumerate_best_subset,
                             grid_search_theta, subset_objective)
from invexreg.solver import SolverConfig, refit, solve_invex


def tiny_instance(seed):
    spec = GenSpec(p=4, k=2, r=4, n_outliers=4, seed=seed, sigma_e=0.05,
                   rho_min=5.0, max_resamples=500)
    return generate(spec)


def test_single_subset_equals_refit():
    data = tiny_instance(0)
    lam = 0.9
    res = enumerate_best_subset(data, data.n, lam)
    theta = refit(data, np.ones(data.n), lam)
    assert res.J_star == tuple(range(data.n))
    assert abs(res.objective - subset_objective(data, np.arange(data.n), theta, lam)) <= 1e-6


def test_gross_outlier_excluded():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 2))
    theta = np.array([1.0, -1.0])
    y = X @ theta
    y[3] += 100.0  # gross outlier
    data = Dataset(X=X, y=y, labels=np.array([CLEAN] * 3 + [OUTLIER]))
    res = enumerate_best_subset(data, 2, 0.1)
    assert 3 not in res.J_star


def test_oracle_matches_solver_on_separated_instance():
    data = tiny_instance(0)
    lam = 1.18
    orc = enumerate_best_subset(data, 4, lam)
    clean = set(np.flatnonzero(data.clean_mask))
    assert set(orc.J_star) <= clean
    res = solve_invex(data, SolverConfig(m=4, lam=lam))
    assert tuple(sorted(res.selection)) == orc.J_star


def test_oracle_lower_bounds_solver():
    for seed in range(4):
        data = tiny_instance(seed)
        lam = 1.18
        orc = enumerate_best_subset(data, 4, lam)
        res = solve_invex(data, SolverConfig(m=4, lam=lam))
        theta = refit(data, res.b_rounded, lam)
        sol_obj = subset_objective(data, res.selection, theta, lam)
        assert orc.objective <= sol_obj + 1e-9


def test_duplicate_of_selected_clean_never_hurts():
    data = tiny_instance(2)
    lam = 1.18
    base = enumerate_best_subset(data, 4, lam)
    dup = base.J_star[0]
    X2 = np.vstack([data.X, data.X[dup]])
    y2 = np.append(data.y, data.y[dup])
    labels2 = np.append(data.labels, data.labels[dup])
    bigger = Dataset(X=X2, y=y2, labels=labels2, theta_star=data.theta_star)
    res2 = enumerate_best_subset(bigger, 4, lam)
    assert res2.objective <= base.objective + 1e-9


def test_combinatorial_blowup():
    data = tiny_instance(3)
    with pytest.raises(CombinatorialBlowup):
        enumerate_best_subset(data, 4, 1.0, cap=10)


def test_grid_oracle_agrees_with_refit_at_p2():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    theta = np.array([0.8, -0.4])
    y = X @ theta + 0.05 * rng.standard_normal(6)
    data = Dataset(X=X, y=y, labels=np.array([CLEAN] * 6))
    lam = 0.7
    rows = np.arange(6)
    th_grid, obj_grid = grid_search_theta(data, rows, lam, radius=2.0)
    th_refit = refit(data, rows, lam)
    obj_refit = subset_objective(data, rows, th_refit, lam)
    # refit must beat the grid up to the grid resolution
    assert obj_refit <= obj_grid + 1e-5
    assert np.abs(th_grid - th_refit).max() <= 2e-3


def test_grid_oracle_rejects_large_p():
    data = tiny_instance(6)
    with pytest.raises(ValueError):
        grid_search_theta(data, np.arange(4), 1.0, radius=1.0)


def test_oracle_json():
    data = tiny_instance(7)
    res = enumerate_best_subset(data, 4, 1.0)
    payload = json.dumps(to_jsonable(res))
    assert "J_star" in payload and "objective" in payload


def _p2_instance():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    y = X @ np.array([0.8, -0.4]) + 0.05 * rng.standard_normal(6)
    return Dataset(X=X, y=y, labels=np.array([CLEAN] * 6))


# each reads its rows argument the way refit and the certificate do
_ROW_READERS = {
    "subset_objective":
        lambda data, rows: subset_objective(data, rows, np.array([0.5, -0.5]), 0.7),
    "grid_search_theta":
        lambda data, rows: grid_search_theta(data, rows, 0.7, radius=1.0, step=0.01)[1],
}


@pytest.mark.parametrize("reader", sorted(_ROW_READERS))
def test_oracle_reads_a_mask_as_the_rows_it_selects(reader):
    data = _p2_instance()
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    call = _ROW_READERS[reader]
    assert call(data, mask) == call(data, np.flatnonzero(mask))


@pytest.mark.parametrize("rows", [[-1], [6], [0, 0.5, 1, 0, 0, 0]])
@pytest.mark.parametrize("reader", sorted(_ROW_READERS))
def test_oracle_rejects_rows_outside_the_samples(reader, rows):
    with pytest.raises(ValueError, match="selection"):
        _ROW_READERS[reader](_p2_instance(), np.array(rows))
