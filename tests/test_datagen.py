import json
import math
import re

import numpy as np
import pytest

from invexreg import datagen
from invexreg.cli import main
from invexreg.datagen import GenSpec, ResampleExhausted, generate
from invexreg.model import load_dataset, save_dataset


def make_spec(p=10, k=3, r=40, n_out=20, seed=0, sigma_e=0.1, **kw):
    return GenSpec(p=p, k=k, r=r, n_outliers=n_out, seed=seed, sigma_e=sigma_e, **kw)


def test_theta_star_sparsity_and_magnitudes():
    data = generate(make_spec(p=50, k=4, seed=1))
    theta = data.theta_star
    nz = np.abs(theta) > 0
    assert nz.sum() == 4
    mags = np.abs(theta[nz])
    assert np.all((mags >= 0.1) & (mags < 1.1))
    assert data.meta["M"] == make_spec(k=4).M == 1.1 * 4
    assert np.abs(theta).sum() < data.meta["M"]


def test_theta_star_dense_at_k_equals_p():
    theta = generate(make_spec(p=5, k=5)).theta_star
    assert np.all(np.abs(theta) > 0)


def test_theta_star_deterministic():
    spec = make_spec(seed=42)
    assert np.array_equal(generate(spec).theta_star, generate(spec).theta_star)


def test_clean_noiseless():
    data = generate(make_spec(sigma_e=0.0))
    clean = ~data.outlier
    assert np.array_equal(data.y[clean], data.X[clean] @ data.theta_star)


def test_clean_sample_covariance_close_to_identity():
    data = generate(make_spec(p=5, k=2, r=10000, n_out=0, seed=3))
    X = data.X[~data.outlier]
    cov = X.T @ X / X.shape[0]
    assert np.linalg.norm(cov - np.eye(5), 2) < 0.1


def test_clean_noise_scale():
    data = generate(make_spec(r=800, sigma_e=0.3))
    clean = ~data.outlier
    emp = np.std(data.y[clean] - data.X[clean] @ data.theta_star)
    assert abs(emp - 0.3) <= 0.2 * 0.3


def test_outliers_degenerate_ranges(monkeypatch):
    monkeypatch.setattr(datagen, "_OUTLIER_PREDICTOR_RANGE", (0.0, 0.0))
    monkeypatch.setattr(datagen, "_OUTLIER_RESPONSE_RANGE", (5.0, 5.0))
    data = generate(make_spec())
    out = data.outlier
    assert out.sum() == 20
    assert np.all(data.X[out] == 0.0) and np.all(data.y[out] == 5.0)


def test_outliers_default_ranges():
    data = generate(make_spec(seed=9))
    X, y = data.X[data.outlier], data.y[data.outlier]
    assert X.shape == (20, 10)
    assert X.min() >= 0.0 and X.max() <= 1.0
    assert y.min() >= 0.0 and y.max() <= 5.0


def test_outliers_empty():
    data = generate(make_spec(n_out=0))
    assert not data.outlier.any() and data.X.shape == (40, 10)


def test_rho_gap_hand_example(monkeypatch):
    """Noiseless clean rows have loss 0 at theta*, and outliers at x = 0,
    y = 2 have loss 4, so the gap is 4."""
    monkeypatch.setattr(datagen, "_OUTLIER_PREDICTOR_RANGE", (0.0, 0.0))
    monkeypatch.setattr(datagen, "_OUTLIER_RESPONSE_RANGE", (2.0, 2.0))
    data = generate(make_spec(sigma_e=0.0))
    assert abs(data.rho - 4.0) <= 1e-12


def test_rho_gap_detects_duplicated_clean(monkeypatch):
    """An outlier whose loss ties the largest clean loss, here 0 on
    noiseless data, has no gap: it is resampled, and with every draw the
    same, generation gives up."""
    monkeypatch.setattr(datagen, "_OUTLIER_PREDICTOR_RANGE", (0.0, 0.0))
    monkeypatch.setattr(datagen, "_OUTLIER_RESPONSE_RANGE", (0.0, 0.0))
    with pytest.raises(ResampleExhausted, match="20 outliers still violate"):
        generate(make_spec(sigma_e=0.0, max_resamples=2))


def test_generate_no_outliers():
    """With one class there is nothing to separate: the gap is +inf."""
    data = generate(make_spec(n_out=0))
    assert not data.outlier.any()
    assert data.rho == np.inf


def test_generate_deterministic():
    spec = make_spec(seed=21)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.outlier, b.outlier)
    assert a.rho == b.rho


def test_generate_margin_holds():
    """rho, the smallest outlier loss minus the largest clean loss at
    theta*, is positive, also when rho_min forces resampling rounds."""
    specs = [make_spec(seed=seed) for seed in range(5)]
    for spec in specs + [make_spec(seed=2, rho_min=3.0, max_resamples=500)]:
        data = generate(spec)
        assert data.rho > 0.0
        loss = (data.y - data.X @ data.theta_star) ** 2
        assert loss[data.outlier].min() - loss[~data.outlier].max() == data.rho


def test_generate_rho_min_enforced():
    data = generate(make_spec(seed=2, rho_min=3.0, max_resamples=500))
    assert data.rho >= 3.0


def test_generate_counts_and_theta_consistency():
    """theta* has its own random stream: it depends on the seed, not on the
    row counts."""
    data = generate(make_spec(r=30, n_out=12, seed=5))
    assert data.n == 42 and data.r == 30
    assert np.count_nonzero(data.outlier) == 12
    assert np.array_equal(data.theta_star, generate(make_spec(r=5, n_out=0, seed=5)).theta_star)


def test_generate_resample_exhausted(monkeypatch):
    # clean losses are huge (big noise), outliers capped in [0,0.1]x[0,0.1]
    monkeypatch.setattr(datagen, "_OUTLIER_PREDICTOR_RANGE", (0.0, 0.1))
    monkeypatch.setattr(datagen, "_OUTLIER_RESPONSE_RANGE", (0.0, 0.1))
    spec = make_spec(sigma_e=50.0, seed=7, max_resamples=3)
    with pytest.raises(ResampleExhausted):
        generate(spec)


def test_genspec_validation():
    with pytest.raises(ValueError):
        make_spec(r=0)


@pytest.mark.parametrize("kw, match", [
    ({"p": 4.0}, "p must be an integer >= 2, got 4.0"),
    ({"k": 2.0}, "k must be an integer >= 1, got 2.0"),
    ({"k": True}, "k must be an integer >= 1, got True"),
    ({"k": 5}, "p must be an integer >= 5, got 4"),
    ({"p": True}, "p must be an integer >= 2, got True"),
    ({"sigma_e": math.inf}, "sigma_e must be finite and >= 0, got inf"),
    ({"sigma_e": math.nan}, "sigma_e must be finite and >= 0, got nan"),
    ({"sigma_e": -0.1}, "sigma_e must be finite and >= 0, got -0.1"),
])
def test_ground_truth_rejects_a_bad_field_by_name(kw, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        make_spec(**{"p": 4, "k": 2, **kw})


@pytest.mark.parametrize("kw, match", [
    ({"r": 2.5}, "r must be an integer >= 1, got 2.5"),
    ({"n_out": -1}, "n_outliers must be an integer >= 0, got -1"),
    ({"n_out": 3.0}, "n_outliers must be an integer >= 0, got 3.0"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"max_resamples": 10.0}, "max_resamples must be an integer >= 0, got 10.0"),
    ({"rho_min": -3}, "rho_min must be finite and >= 0, got -3"),
    ({"rho_min": math.nan}, "rho_min must be finite and >= 0, got nan"),
])
def test_genspec_rejects_a_bad_field_by_name(kw, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        make_spec(**kw)


def test_cli_gen_rejects_nan_inputs(tmp_path, capsys):
    code = main(["gen", "--p", "5", "--k", "2", "--r", "20", "--outliers", "5",
                 "--sigma-e", "nan", "--rho-min", "nan", "--out", str(tmp_path / "d")])
    assert code == 2
    assert "sigma_e must be finite and >= 0, got nan" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sidecar_has_no_sigma_and_old_sidecars_load(tmp_path):
    data = generate(make_spec(seed=3))
    _, json_path = save_dataset(data, tmp_path / "ds")
    meta = json.loads(json_path.read_text())
    assert "sigma" not in meta and meta["sigma_e"] == 0.1
    meta["sigma"] = 1.0  # a sidecar written while the generator's spec had sigma
    json_path.write_text(json.dumps(meta))
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.X, data.X) and np.array_equal(back.y, data.y)
    assert "sigma" not in back.meta
