"""Evaluation metrics for the recovery experiments."""

from __future__ import annotations

import numpy as np

__all__ = ["support_jaccard", "norm_error", "clean_recovery_mistakes",
           "theory_delta_m"]

_ZERO_TOL = 1e-6   # |theta_j| at or below this is off the support


def support_jaccard(theta_hat: np.ndarray, theta_star: np.ndarray) -> float:
    """|supp(theta_hat) & supp(theta_star)| / |union|; 1 when both empty."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_hat.shape != theta_star.shape:
        raise ValueError("dimension mismatch")
    a = np.abs(theta_hat) > _ZERO_TOL
    b = np.abs(theta_star) > _ZERO_TOL
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return float(np.count_nonzero(a & b) / union)


def norm_error(theta_hat: np.ndarray, theta_star: np.ndarray) -> float:
    """Euclidean distance between estimate and truth."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_hat.shape != theta_star.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(theta_hat - theta_star))


def clean_recovery_mistakes(b_rounded: np.ndarray, outlier: np.ndarray,
                            m: int) -> float:
    """Fraction of the m selected samples that are outliers.  `outlier` is
    a bool mask as long as b_rounded, or ValueError names it."""
    b_rounded = np.asarray(b_rounded)
    outlier = np.asarray(outlier)
    if outlier.dtype != bool or outlier.shape != b_rounded.shape:
        raise ValueError(f"outlier must be a bool array of length {b_rounded.size}, "
                         f"got {outlier.dtype} of shape {outlier.shape}")
    sel = np.flatnonzero(b_rounded > 0.5)
    if sel.size != m:
        raise ValueError(f"selection has {sel.size} ones, expected m={m}")
    return float(np.count_nonzero(outlier[sel]) / m)


def theory_delta_m(M: float, lam: float, k: int, m: int) -> float:
    """Estimation-error bound (2 + M) * 2 * lam * sqrt(k) / (alpha1 * m) at
    alpha1 = 1, the clean covariance's smallest eigenvalue, since the
    generator's predictors are standard Gaussian."""
    if min(M, lam, k, m) <= 0:
        raise ValueError("all arguments must be positive")
    return float((2.0 + M) * 2.0 * lam * np.sqrt(k) / m)
