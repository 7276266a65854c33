import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invexreg.model import (CLEAN, OUTLIER, Dataset, lift_parameter, lift_sample,
                            lifted_gram, load_dataset, objective, sample_losses,
                            save_dataset, squared_loss)


def random_triple(rng, p):
    return rng.standard_normal(p), float(rng.standard_normal()), rng.standard_normal(p)


def test_squared_loss_zero_cases():
    assert squared_loss(np.zeros(3), 0.0, np.array([1.0, -2.0, 0.5])) == 0.0
    e1 = np.array([1.0, 0.0])
    assert squared_loss(e1, 1.0, e1) == 0.0


def test_squared_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        squared_loss(np.zeros(3), 1.0, np.zeros(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_lifting_identity(p, seed):
    rng = np.random.default_rng(seed)
    x, y, theta = random_triple(rng, p)
    f = squared_loss(x, y, theta)
    lifted = float((lift_sample(x, y) * lift_parameter(theta)).sum())
    assert abs(lifted - f) <= 1e-10 * max(1.0, f)


def test_lift_sample_blocks():
    A = lift_sample(np.zeros(2), 0.0)
    assert np.all(A == 0.0)
    A = lift_sample(np.array([1.0]), 2.0)
    assert np.allclose(A, [[1.0, -2.0], [-2.0, 4.0]])


def test_lift_sample_rank_one():
    rng = np.random.default_rng(3)
    x, y, _ = random_triple(rng, 6)
    A = lift_sample(x, y)
    assert np.allclose(A, A.T)
    w = np.linalg.eigvalsh(A)
    assert np.count_nonzero(np.abs(w) > 1e-10) <= 1


def test_lift_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        lift_sample(np.array([np.nan]), 1.0)


def test_lift_parameter_examples():
    V = lift_parameter(np.zeros(3))
    assert V[-1, -1] == 1.0 and np.count_nonzero(V) == 1
    V = lift_parameter(np.array([1.0, 0.0]))
    assert np.allclose(V, [[1, 0, 1], [0, 0, 0], [1, 0, 1]])


def test_lift_parameter_spectrum():
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(7)
    w = np.linalg.eigvalsh(lift_parameter(theta))
    z2 = float(theta @ theta) + 1.0
    assert abs(w[-1] - z2) <= 1e-10 * z2
    assert np.abs(w[:-1]).max() <= 1e-10 * z2


def _tiny_dataset(rng, n=5, p=3):
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    labels = np.array([CLEAN] * n)
    return Dataset(X=X, y=y, labels=labels)


def test_objective_zero_weight():
    rng = np.random.default_rng(11)
    data = _tiny_dataset(rng)
    V = lift_parameter(rng.standard_normal(3))
    assert objective(np.zeros(5), V, data, 0.0) == 0.0


def test_objective_matches_samplewise_recomputation():
    rng = np.random.default_rng(13)
    data = _tiny_dataset(rng)
    theta = rng.standard_normal(3)
    V = lift_parameter(theta)
    b = rng.uniform(0, 1, size=5)
    lam = 0.37
    manual = sum(b[i] * squared_loss(data.X[i], data.y[i], theta)
                 for i in range(5)) + lam * np.abs(V).sum()
    assert abs(objective(b, V, data, lam) - manual) <= 1e-10 * max(1.0, abs(manual))


def test_objective_all_ones_equals_total_loss():
    rng = np.random.default_rng(17)
    data = _tiny_dataset(rng)
    theta = rng.standard_normal(3)
    total = sum(squared_loss(data.X[i], data.y[i], theta) for i in range(5))
    got = objective(np.ones(5), lift_parameter(theta), data, 0.0)
    assert abs(got - total) <= 1e-10 * max(1.0, total)


def test_objective_linear_in_b():
    rng = np.random.default_rng(19)
    data = _tiny_dataset(rng)
    V = lift_parameter(rng.standard_normal(3))
    b1 = rng.uniform(0, 1, 5)
    b2 = rng.uniform(0, 1, 5)
    for alpha in (0.0, 0.25, 0.9):
        mix = objective(alpha * b1 + (1 - alpha) * b2, V, data, 0.0)
        split = alpha * objective(b1, V, data, 0.0) + (1 - alpha) * objective(b2, V, data, 0.0)
        assert abs(mix - split) <= 1e-10 * max(1.0, abs(split))


def test_sample_losses_matches_lifted_inner_products():
    rng = np.random.default_rng(23)
    for n, p in ((7, 4), (60, 50)):
        data = _tiny_dataset(rng, n=n, p=p)
        V = lift_parameter(rng.standard_normal(p))
        W = rng.standard_normal((p + 1, 3))
        V = V + 0.1 * np.eye(p + 1) + 0.05 * W @ W.T  # non-rank-1, general corner
        got = sample_losses(data.X, data.y, V)
        for i in range(n):
            direct = float((lift_sample(data.X[i], data.y[i]) * V).sum())
            assert abs(got[i] - direct) <= 1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize("weights", ["fractional", "mask"])
def test_lifted_gram_is_symmetric_adjoint_of_sample_losses(weights):
    rng = np.random.default_rng(20)
    X = rng.standard_normal((40, 7))
    y = 3.0 * rng.standard_normal(40)
    if weights == "fractional":
        b = rng.uniform(0.0, 1.0, 40)
    else:  # a 0/1 mask on a column subset, as the dual certificate uses it
        b = (rng.uniform(size=40) < 0.6).astype(float)
        X = X[:, [1, 4, 5]]
    G = lifted_gram(X, y, b)
    assert np.array_equal(G, G.T)
    for _ in range(5):
        W = rng.standard_normal((X.shape[1] + 1,) * 2)
        V = W + W.T
        lhs = float((G * V).sum())
        rhs = float(b @ sample_losses(X, y, V))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4), labels=np.array(["clean"] * 3))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(3), labels=np.array(["clean"] * 3),
                theta_star=np.zeros(5))


def nine_row_dataset(tmp_path):
    """A 9-row dataset, 6 clean and 3 outliers, saved under tmp_path/ds."""
    data = Dataset(X=np.arange(18.0).reshape(9, 2), y=np.arange(9.0),
                   labels=np.array([CLEAN] * 6 + [OUTLIER] * 3))
    return save_dataset(data, tmp_path / "ds")


def test_dataset_rejects_an_unknown_label(tmp_path):
    """A misspelled label would read as neither clean nor outlier, so every
    outlier count and the mistakes fraction would read 0."""
    with pytest.raises(ValueError, match="labels must be 'clean' or 'outlier', "
                                         "got \\['outlire'\\]"):
        Dataset(X=np.zeros((2, 1)), y=np.zeros(2), labels=np.array([CLEAN, "outlire"]))
    csv_path, _ = nine_row_dataset(tmp_path)
    csv_path.write_text(csv_path.read_text().replace(OUTLIER, "outlire"))
    with pytest.raises(ValueError, match="labels must be"):
        load_dataset(tmp_path / "ds")


def test_dataset_r_is_the_count_of_clean_labels(tmp_path):
    """r is computed from the labels, so a sidecar without r loads with it."""
    assert Dataset(X=np.zeros((3, 1)), y=np.zeros(3),
                   labels=np.array([CLEAN] * 2 + [OUTLIER])).r == 2
    _, json_path = nine_row_dataset(tmp_path)
    meta = json.loads(json_path.read_text())
    assert meta["r"] == 6
    del meta["r"]
    json_path.write_text(json.dumps(meta))
    assert load_dataset(tmp_path / "ds").r == 6


@pytest.mark.parametrize("r", [5, 7])
def test_load_dataset_rejects_a_sidecar_r_that_is_not_the_clean_count(tmp_path, r):
    _, json_path = nine_row_dataset(tmp_path)
    meta = json.loads(json_path.read_text())
    meta["r"] = r
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"r: the sidecar says {r}, the CSV has 6 clean rows"):
        load_dataset(tmp_path / "ds")


def test_load_dataset_names_the_csv_line_of_a_short_row(tmp_path):
    """A row with a missing value would read its label as a number."""
    csv_path, _ = nine_row_dataset(tmp_path)
    rows = csv_path.read_text().splitlines()
    fields = rows[2].split(",")   # the second data row: y, x1, x2, label
    rows[2] = ",".join(fields[:2] + fields[3:])
    csv_path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{csv_path} line 3: 3 fields, "
                                                   f"the header has 4")):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("rho", [-5.0, "abc"])
def test_load_dataset_recomputes_rho_over_the_sidecar(tmp_path, rho):
    """rho is computed from the arrays and theta*, so an edited sidecar rho
    is not read."""
    data = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([0.5, 3.0]),
                   labels=np.array([CLEAN, OUTLIER]), theta_star=np.array([0.25]))
    _, json_path = save_dataset(data, tmp_path / "ds")
    meta = json.loads(json_path.read_text())
    assert meta["rho"] == data.rho == 6.1875
    meta["rho"] = rho
    json_path.write_text(json.dumps(meta))
    assert load_dataset(tmp_path / "ds").rho == 6.1875


def test_dataset_rejects_non_finite_data_and_stores_read_only_views():
    """Every fit, the certificate and the metrics read these arrays, so a
    NaN or inf is refused once, here, with the field's name."""
    X, y, theta_star = np.ones((3, 2)), np.ones(3), np.ones(2)
    for name in ("X", "y", "theta_star"):
        for bad in (np.nan, np.inf):
            arrays = {"X": X.copy(), "y": y.copy(), "theta_star": theta_star.copy()}
            arrays[name].flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                Dataset(labels=np.array([CLEAN] * 3), **arrays)
    labels = np.array([CLEAN] * 3)
    data = Dataset(X=X, y=y, labels=labels, theta_star=theta_star)
    for mine, stored in ((X, data.X), (y, data.y), (labels, data.labels),
                         (theta_star, data.theta_star)):
        assert np.shares_memory(mine, stored)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[1]
        mine[0] = mine[1]


def test_load_dataset_rejects_a_sidecar_n_that_is_not_the_row_count(tmp_path):
    _, json_path = nine_row_dataset(tmp_path)
    meta = json.loads(json_path.read_text())
    meta.update(n=99)
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="n: the sidecar says 99, the CSV has 9 rows"):
        load_dataset(tmp_path / "ds")


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    labels = np.array([CLEAN, OUTLIER, CLEAN, CLEAN, OUTLIER, CLEAN])
    data = Dataset(X=X, y=y, labels=labels, theta_star=rng.standard_normal(3),
                   meta={"p": 3, "k": 2, "M": 2.2, "sigma_e": 0.1, "seed": 29})
    save_dataset(data, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.X, data.X)          # repr round-trips floats
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.theta_star, data.theta_star)
    assert back.r == data.r == 4 and back.rho == data.rho
    loss = (y - X @ data.theta_star) ** 2
    assert data.rho == loss[labels == OUTLIER].min() - loss[labels == CLEAN].max()
    assert back.meta["seed"] == 29


def test_dataset_infinite_rho_round_trip(tmp_path):
    """With no outliers rho is +inf, written "inf"; without theta* it is None."""
    data = Dataset(X=np.zeros((2, 1)), y=np.zeros(2),
                   labels=np.array([CLEAN, CLEAN]), theta_star=np.zeros(1))
    assert data.rho == np.inf
    _, json_path = save_dataset(data, tmp_path / "ds")
    assert json.loads(json_path.read_text())["rho"] == "inf"
    assert load_dataset(tmp_path / "ds").rho == np.inf
    data = Dataset(X=data.X, y=data.y, labels=data.labels)
    _, json_path = save_dataset(data, tmp_path / "ds")
    assert json.loads(json_path.read_text())["rho"] is None
    assert data.rho is None and load_dataset(tmp_path / "ds").rho is None
