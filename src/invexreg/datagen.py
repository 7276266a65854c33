"""Synthetic data: clean linear-model samples plus loss-gap-separated outliers.

An outlier is a sample whose squared loss at the true parameter exceeds
every clean sample's loss by a strictly positive margin; the generator
enforces this by resampling offending outliers.  `generate` is the one
entry point and `GenSpec` its one spec: the dataset it returns holds
theta* (`theta_star`, with L1 norm below `GenSpec.M`), the clean and
outlier rows (`clean_mask`, `outlier_mask`), and `Dataset.r` and
`Dataset.rho`, computed from those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLEAN, OUTLIER, Dataset, _check_int, _check_nonneg

__all__ = ["GenSpec", "ResampleExhausted", "generate"]


class ResampleExhausted(RuntimeError):
    """Could not satisfy the outlier loss-gap margin within max_resamples."""


# outliers draw each predictor and the response uniformly on these ranges
_OUTLIER_PREDICTOR_RANGE = (0.0, 1.0)
_OUTLIER_RESPONSE_RANGE = (0.0, 5.0)


@dataclass(frozen=True, eq=False)
class GenSpec:
    """One synthetic dataset: r clean rows of a k-sparse linear model in p
    standard Gaussian predictors with noise sigma_e, and n_outliers rows
    set apart by a loss gap of at least rho_min.

    k >= 1, p >= k, r >= 1, n_outliers, seed and max_resamples >= 0 are
    integers and sigma_e and rho_min are finite and >= 0, or ValueError
    names the field."""

    p: int
    k: int
    r: int
    n_outliers: int
    seed: int = 0
    sigma_e: float = 0.1
    max_resamples: int = 100
    # extra margin required on the realized loss gap; 0 keeps plain strict
    # positivity, larger values force well-separated instances.
    rho_min: float = 0.0

    def __post_init__(self):
        _check_int("k", self.k, 1)
        _check_int("p", self.p, self.k)
        _check_nonneg("sigma_e", self.sigma_e)
        _check_int("r", self.r, 1)
        for name in ("n_outliers", "seed", "max_resamples"):
            _check_int(name, getattr(self, name), 0)
        _check_nonneg("rho_min", self.rho_min)

    @property
    def M(self) -> float:
        """1.1 k, the L1 budget of theta*: its k magnitudes lie in [0.1, 1.1)."""
        return 1.1 * self.k


def _rngs(spec: GenSpec) -> dict[str, np.random.Generator]:
    """Independent named streams so each stage is reproducible on its own."""
    children = np.random.SeedSequence(spec.seed).spawn(4)
    names = ("theta", "clean", "outliers", "shuffle")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def _draw_theta_star(spec: GenSpec, rng) -> np.ndarray:
    """k-sparse parameter: support uniform, magnitudes uniform on [0.1, 1.1),
    random signs, so its L1 norm is below the budget `GenSpec.M`."""
    theta = np.zeros(spec.p)
    support = rng.choice(spec.p, size=spec.k, replace=False)
    mags = rng.uniform(0.1, 1.1, size=spec.k)
    signs = rng.choice([-1.0, 1.0], size=spec.k)
    theta[support] = signs * mags
    return theta


def _draw_clean(rng, spec: GenSpec, theta_star: np.ndarray):
    """r rows of Gaussian predictors and responses y = X theta* + e."""
    X = rng.standard_normal((spec.r, spec.p))
    e = rng.normal(0.0, spec.sigma_e, size=spec.r)
    y = X @ theta_star + e
    return X, y


def _draw_outliers(rng, spec: GenSpec, count: int):
    """Predictors and responses drawn i.i.d. uniform on the outlier ranges."""
    plo, phi = _OUTLIER_PREDICTOR_RANGE
    rlo, rhi = _OUTLIER_RESPONSE_RANGE
    X = rng.uniform(plo, phi, size=(count, spec.p))
    y = rng.uniform(rlo, rhi, size=count)
    return X, y


def generate(spec: GenSpec) -> Dataset:
    """Full dataset: clean + outliers, margin-enforced, shuffled, labeled.
    Every outlier is redrawn until its loss at theta* exceeds the largest
    clean loss by more than 0 and by at least rho_min.  The dataset's
    `rho`, recomputed from the shuffled rows, is the smallest gap of the
    round that accepted every outlier, to within an ulp: BLAS can round a
    row's product with theta* differently at another row position."""
    rngs = _rngs(spec)
    theta_star = _draw_theta_star(spec, rngs["theta"])

    Xc, yc = _draw_clean(rngs["clean"], spec, theta_star)
    max_clean = ((yc - Xc @ theta_star) ** 2).max()

    Xo, yo = _draw_outliers(rngs["outliers"], spec, spec.n_outliers)
    for attempt in range(spec.max_resamples + 1):
        gaps = (yo - Xo @ theta_star) ** 2 - max_clean
        bad = (gaps <= 0.0) | (gaps < spec.rho_min)
        if not bad.any():
            break
        if attempt == spec.max_resamples:
            raise ResampleExhausted(
                f"{int(bad.sum())} outliers still violate the loss-gap margin "
                f"after {spec.max_resamples} resampling rounds")
        Xb, yb = _draw_outliers(rngs["outliers"], spec, int(bad.sum()))
        Xo[bad], yo[bad] = Xb, yb

    X, y = np.vstack([Xc, Xo]), np.concatenate([yc, yo])
    labels = np.array([CLEAN] * spec.r + [OUTLIER] * spec.n_outliers)
    perm = rngs["shuffle"].permutation(spec.r + spec.n_outliers)
    X, y, labels = X[perm], y[perm], labels[perm]

    meta = {"p": spec.p, "k": spec.k, "M": spec.M, "sigma_e": spec.sigma_e,
            "seed": spec.seed}
    return Dataset(X=X, y=y, labels=labels, theta_star=theta_star, meta=meta)
