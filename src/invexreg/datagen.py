"""Synthetic data: clean linear-model samples plus loss-gap-separated outliers.

An outlier is a sample whose squared loss at the true parameter exceeds
every clean sample's loss by a strictly positive margin; the generator
enforces this by resampling offending outliers.  `generate` is the one
entry point: the dataset it returns holds theta* (`theta_star`, with
`meta["theta_rescaled"]`), the clean and outlier rows (`clean_mask`,
`outlier_mask`) and `rho`, the smallest loss gap the margin loop accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLEAN, OUTLIER, Dataset, GroundTruthConfig, _check_int, _check_nonneg

__all__ = ["GenSpec", "ResampleExhausted", "generate"]


class ResampleExhausted(RuntimeError):
    """Could not satisfy the outlier loss-gap margin within max_resamples."""


# outliers draw each predictor and the response uniformly on these ranges
_OUTLIER_PREDICTOR_RANGE = (0.0, 1.0)
_OUTLIER_RESPONSE_RANGE = (0.0, 5.0)


@dataclass(frozen=True, eq=False)
class GenSpec:
    """r >= 1, n_outliers, seed and max_resamples >= 0 are integers and
    rho_min is finite and >= 0, or ValueError names the field."""

    ground_truth: GroundTruthConfig
    r: int
    n_outliers: int
    seed: int = 0
    max_resamples: int = 100
    # extra margin required on the realized loss gap; 0 keeps plain strict
    # positivity, larger values force well-separated instances.
    rho_min: float = 0.0

    def __post_init__(self):
        _check_int("r", self.r, 1)
        for name in ("n_outliers", "seed", "max_resamples"):
            _check_int(name, getattr(self, name), 0)
        _check_nonneg("rho_min", self.rho_min)


def _rngs(spec: GenSpec) -> dict[str, np.random.Generator]:
    """Independent named streams so each stage is reproducible on its own."""
    children = np.random.SeedSequence(spec.seed).spawn(4)
    names = ("theta", "clean", "outliers", "shuffle")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def _draw_theta_star(gt: GroundTruthConfig, rng) -> tuple[np.ndarray, bool]:
    """k-sparse parameter: support uniform, magnitudes uniform on [0.1, 1.1],
    random signs, rescaled down to the budget M when its L1 norm exceeds
    it; returns it and whether it was rescaled."""
    theta = np.zeros(gt.p)
    support = rng.choice(gt.p, size=gt.k, replace=False)
    mags = rng.uniform(0.1, 1.1, size=gt.k)
    signs = rng.choice([-1.0, 1.0], size=gt.k)
    theta[support] = signs * mags
    l1 = np.abs(theta).sum()
    rescaled = l1 > gt.M > 0
    if rescaled:
        theta *= gt.M / l1
    return theta, rescaled


def _draw_clean(rng, gt: GroundTruthConfig, count: int, theta_star: np.ndarray):
    """count rows of Gaussian predictors and responses y = X theta* + e."""
    X = rng.standard_normal((count, gt.p))
    e = rng.normal(0.0, gt.sigma_e, size=count)
    y = X @ theta_star + e
    return X, y


def _draw_outliers(rng, spec: GenSpec, count: int):
    """Predictors and responses drawn i.i.d. uniform on the outlier ranges."""
    plo, phi = _OUTLIER_PREDICTOR_RANGE
    rlo, rhi = _OUTLIER_RESPONSE_RANGE
    X = rng.uniform(plo, phi, size=(count, spec.ground_truth.p))
    y = rng.uniform(rlo, rhi, size=count)
    return X, y


def generate(spec: GenSpec) -> Dataset:
    """Full dataset: clean + outliers, margin-enforced, shuffled, labeled.
    rho is the smallest outlier loss minus the largest clean loss, at theta*,
    in the margin round that accepted every outlier; +inf with no outliers."""
    rngs = _rngs(spec)
    gt = spec.ground_truth
    theta_star, rescaled = _draw_theta_star(gt, rngs["theta"])

    Xc, yc = _draw_clean(rngs["clean"], gt, spec.r, theta_star)
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
    rho = float(gaps.min(initial=np.inf))

    X, y = np.vstack([Xc, Xo]), np.concatenate([yc, yo])
    labels = np.array([CLEAN] * spec.r + [OUTLIER] * spec.n_outliers)
    perm = rngs["shuffle"].permutation(spec.r + spec.n_outliers)
    X, y, labels = X[perm], y[perm], labels[perm]

    meta = {"p": gt.p, "k": gt.k, "M": gt.M, "sigma_e": gt.sigma_e,
            "seed": spec.seed, "theta_rescaled": rescaled}
    return Dataset(X=X, y=y, labels=labels, theta_star=theta_star, r=spec.r,
                   rho=rho, meta=meta)
