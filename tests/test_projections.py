from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invexreg.projections import (BFeasibleSet, project_b, project_psd_corner,
                                  prox_entrywise_l1)


def project_b_bruteforce(v, m):
    """Exact small-n oracle: enumerate KKT active-set patterns.

    The true projection is clip(v,0,1) when the sum constraint is slack,
    and otherwise appears among the candidates built from every
    {at-zero, at-one, free} coordinate pattern with the shift solved so the
    sum equals m.  Minimizing the distance over all feasible candidates
    therefore recovers it.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    cands = []
    w = np.clip(v, 0.0, 1.0)
    if w.sum() >= m - 1e-12:
        cands.append(w)
    for pattern in product((0, 1, 2), repeat=n):
        free = [i for i, t in enumerate(pattern) if t == 2]
        ones = [i for i, t in enumerate(pattern) if t == 1]
        w = np.zeros(n)
        w[ones] = 1.0
        if free:
            mu = (m - len(ones) - v[free].sum()) / len(free)
            w[free] = v[free] + mu
            if w[free].min() < -1e-12 or w[free].max() > 1 + 1e-12:
                continue
            w = np.clip(w, 0.0, 1.0)
        elif len(ones) < m:
            continue
        if w.sum() >= m - 1e-9:
            cands.append(w)
    dists = [np.sum((c - v) ** 2) for c in cands]
    return cands[int(np.argmin(dists))]


def test_project_b_spec_examples():
    assert np.allclose(project_b(np.array([2.0, 2.0, 2.0, 2.0]), BFeasibleSet(4, 2)),
                       np.ones(4))
    assert np.allclose(project_b(np.array([0.3, 0.2]), BFeasibleSet(2, 1)),
                       [0.55, 0.45])
    assert np.allclose(project_b(np.array([-1.0, 0.5, 0.4]), BFeasibleSet(3, 1)),
                       [0.0, 0.55, 0.45])


def test_project_b_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        v = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        got = project_b(v, BFeasibleSet(n, m))
        want = project_b_bruteforce(v, m)
        assert np.abs(got - want).max() <= 1e-8


def test_project_b_idempotent_and_feasible():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        bset = BFeasibleSet(n, m)
        w = project_b(rng.standard_normal(n) * 2, bset)
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert w.sum() >= m - 1e-9
        again = project_b(w, bset)
        assert np.abs(again - w).max() <= 1e-9


def test_project_b_optimality_against_random_feasible_points():
    rng = np.random.default_rng(2)
    n, m = 5, 3
    bset = BFeasibleSet(n, m)
    for _ in range(30):
        v = rng.standard_normal(n) * 2
        w = project_b(v, bset)
        d0 = np.sum((w - v) ** 2)
        for _ in range(50):
            cand = project_b(rng.uniform(0, 1, n), bset)  # feasible sample
            assert d0 <= np.sum((cand - v) ** 2) + 1e-9


def test_project_b_infeasible_set():
    with pytest.raises(ValueError):
        BFeasibleSet(3, 4)


def test_psd_corner_already_feasible():
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.standard_normal(4), [1.0]])
    V0 = np.outer(z, z)
    V = project_psd_corner(V0)
    assert np.abs(V - V0).max() <= 1e-9


@pytest.fixture
def eig_calls(monkeypatch):
    """Count the `eigh` and `eigvalsh` calls, by name."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_psd_corner_feasible_input_skips_eigh(eig_calls):
    rng = np.random.default_rng(6)
    W = rng.standard_normal((6, 3))
    V0 = W @ W.T
    V0 /= V0[-1, -1]  # PSD, rank 3, corner exactly 1
    V = project_psd_corner(V0)
    assert np.array_equal(V, 0.5 * (V0 + V0.T))
    assert eig_calls == []
    S = rng.standard_normal((6, 6))
    V = project_psd_corner(S + S.T)  # indefinite: the repair still runs
    assert eig_calls == ["eigvalsh"]
    assert V[-1, -1] == 1.0
    assert np.linalg.eigvalsh(V)[0] >= -1e-9


def test_psd_corner_repair_is_one_exact_shift(eig_calls):
    """An infeasible S' (symmetrized, corner pinned) comes back as
    (S' + eps I) / (1 + eps) with eps = -lambda_min(S') and the corner
    pinned, after one eigvalsh and no eigh."""
    rng = np.random.default_rng(7)
    repaired = 0
    for _ in range(40):
        q = int(rng.integers(1, 15))
        S = rng.standard_normal((q + 1, q + 1))
        S1 = 0.5 * (S + S.T)
        S1[-1, -1] = 1.0
        eps = -np.linalg.eigvalsh(S1)[0]
        if eps <= 1e-9:  # feasible: returned as is, as tested above
            continue
        repaired += 1
        want = (S1 + eps * np.eye(q + 1)) / (1.0 + eps)
        want[-1, -1] = 1.0
        del eig_calls[:]
        assert np.array_equal(project_psd_corner(S), want)
        assert eig_calls == ["eigvalsh"]
    assert repaired >= 30


def test_psd_corner_negative_identity():
    V = project_psd_corner(-np.eye(2))
    assert np.allclose(V, [[0.0, 0.0], [0.0, 1.0]])


def test_psd_corner_feasibility_and_idempotence():
    rng = np.random.default_rng(4)
    for _ in range(80):
        q = int(rng.integers(1, 15))
        S = rng.standard_normal((q + 1, q + 1))
        V = project_psd_corner(S + S.T)
        assert V[-1, -1] == 1.0
        assert np.linalg.eigvalsh(V)[0] >= -1e-9
        V2 = project_psd_corner(V)
        assert np.abs(V2 - V).max() <= 2e-9


def test_psd_corner_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_psd_corner(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_prox_l1_identity_at_zero_tau():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    M = M + M.T
    assert np.array_equal(prox_entrywise_l1(M, 0.0), M)


def test_prox_l1_spec_entries():
    M = np.array([[0.7, -0.1], [-0.1, 0.7]])
    out = prox_entrywise_l1(M, 0.2)
    assert np.allclose(out, [[0.5, 0.0], [0.0, 0.5]])


def test_prox_l1_subgradient_optimality():
    # z minimizes 0.5 (z - m)^2 + tau |z| iff m - z is in tau * sign(z)
    rng = np.random.default_rng(6)
    M = rng.standard_normal((5, 5)) * 2
    M = M + M.T
    tau = 0.8
    Z = prox_entrywise_l1(M, tau)
    resid = M - Z
    on = Z != 0.0
    assert np.allclose(resid[on], tau * np.sign(Z[on]), atol=1e-12)
    assert np.all(np.abs(resid[~on]) <= tau + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_prox_l1_nonexpansive(seed, tau):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    A, B = A + A.T, B + B.T
    da = np.linalg.norm(prox_entrywise_l1(A, tau) - prox_entrywise_l1(B, tau))
    assert da <= np.linalg.norm(A - B) + 1e-12


def test_prox_l1_preserves_symmetry():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 6))
    M = M + M.T
    out = prox_entrywise_l1(M, 0.3)
    assert np.array_equal(out, out.T)
