import numpy as np
import pytest

from invexreg.metrics import (clean_recovery_mistakes, norm_error,
                              support_jaccard, theory_delta_m)
from invexreg.model import CLEAN, OUTLIER


def test_jaccard_identical_supports():
    a = np.array([0.0, 1.0, -2.0, 0.0])
    assert support_jaccard(a, a) == 1.0


def test_jaccard_partial_overlap():
    a = np.array([1.0, 1.0, 0.0])   # support {0, 1}
    b = np.array([0.0, 1.0, 1.0])   # support {1, 2}
    assert abs(support_jaccard(a, b) - 1.0 / 3.0) <= 1e-15


def test_jaccard_disjoint_and_empty():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert support_jaccard(a, b) == 0.0
    z = np.zeros(3)
    assert support_jaccard(z, z) == 1.0


def test_jaccard_zero_tol():
    a = np.array([1e-9, 1.0])
    b = np.array([0.0, 1.0])
    assert support_jaccard(a, b) == 1.0            # below the tolerance
    assert support_jaccard(np.array([1e-5, 1.0]), b) == 0.5   # above it


def test_jaccard_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    a[rng.random(6) < 0.5] = 0.0
    b[rng.random(6) < 0.5] = 0.0
    assert support_jaccard(a, b) == support_jaccard(b, a)
    perm = rng.permutation(6)
    assert support_jaccard(a, b) == support_jaccard(a[perm], b[perm])


def test_norm_error():
    a = np.array([1.0, 2.0])
    assert norm_error(a, a) == 0.0
    assert norm_error(a + np.array([1.0, 0.0]), a) == 1.0
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    assert abs(norm_error(x, y) - np.sqrt(((x - y) ** 2).sum())) <= 1e-15


def test_mistakes_fraction():
    labels = np.array([CLEAN, CLEAN, OUTLIER, OUTLIER])
    assert clean_recovery_mistakes(np.array([1, 1, 0, 0]), labels, 2) == 0.0
    assert clean_recovery_mistakes(np.array([0, 0, 1, 1]), labels, 2) == 1.0
    labels = np.array([CLEAN, CLEAN, OUTLIER, OUTLIER, CLEAN, OUTLIER])
    assert clean_recovery_mistakes(np.array([1, 1, 1, 1, 0, 0]), labels, 4) == 0.5


def test_mistakes_requires_exact_m():
    labels = np.array([CLEAN, OUTLIER])
    with pytest.raises(ValueError):
        clean_recovery_mistakes(np.array([1, 1]), labels, 1)


def test_delta_m_direct_substitution():
    assert abs(theory_delta_m(1.0, 10.0, 4, 100) - 1.2) <= 1e-12


def test_delta_m_scaling():
    # with lam proportional to sqrt(m), quadrupling m halves the bound
    d1 = theory_delta_m(1.0, np.sqrt(100.0), 4, 100)
    d2 = theory_delta_m(1.0, np.sqrt(400.0), 4, 400)
    assert abs(d1 - 2.0 * d2) <= 1e-12
    # vanishing bound at fixed lam as m grows
    assert theory_delta_m(1.0, 5.0, 4, 10**9) < 1e-6


def test_delta_m_validates():
    with pytest.raises(ValueError):
        theory_delta_m(0.0, 1.0, 1, 1)
