"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  The two sweep reproductions dominate the
runtime; everything else finishes in seconds.
"""

import math
import time
from itertools import product

import numpy as np

from invexreg.bench import ExperimentConfig, run_sweep
from invexreg.certify import (assumption_check, build_duals, invexity_witness,
                              kkt_residuals, nonconvexity_witness,
                              strict_dual_feasibility)
from invexreg.datagen import GenSpec, generate
from invexreg.model import lift_parameter, lift_sample, squared_loss
from invexreg.oracle import enumerate_best_subset, subset_objective
from invexreg.projections import BFeasibleSet, project_b, project_psd_corner
from invexreg.solver import SolverConfig, refit, solve_invex

KAPPA = 0.5


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def tiny_instance(seed):
    return generate(GenSpec(p=4, k=2, r=4, n_outliers=4, seed=seed, sigma_e=0.05,
                            rho_min=5.0, max_resamples=500))


def mid_instance(seed):
    return generate(GenSpec(p=20, k=3, r=60, n_outliers=30, seed=seed, sigma_e=0.1,
                            rho_min=1.0, max_resamples=500))


def test_acceptance_01_lifting_identity():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for p in (1, 5, 50):
        for _ in range(334):
            x = rng.standard_normal(p)
            y = float(rng.standard_normal())
            theta = rng.standard_normal(p)
            f = squared_loss(x, y, theta)
            lifted = float((lift_sample(x, y) * lift_parameter(theta)).sum())
            worst = max(worst, abs(lifted - f) / max(1.0, f))
    dt = time.time() - t0
    report(1, "lifting identity (1000+ random triples, p in {1,5,50})",
           worst <= 1e-10 and dt < 1.0, f"worst={worst:.2e}, {dt:.2f}s")


def test_acceptance_02_invexity_certificate():
    t0 = time.time()
    data = tiny_instance(11)
    min_gap, bilinear = invexity_witness(data, trials=1000, seed=0)
    dt = time.time() - t0
    report(2, "invexity certificate (1000 feasible pairs)",
           bilinear <= 1e-9 and min_gap >= -1e-9 and dt < 10.0,
           f"bilinear={bilinear:.2e}, min_gap={min_gap:.2e}, {dt:.1f}s")


def test_acceptance_03_nonconvexity_witness():
    t0 = time.time()
    rng = np.random.default_rng(3)
    from invexreg.model import CLEAN, Dataset
    X = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    data = Dataset(X=X, y=y, labels=np.array([CLEAN] * 12))
    g_pos, g_neg = nonconvexity_witness(data)
    dt = time.time() - t0
    report(3, "non-convexity witness signs",
           g_pos > 1e-6 and g_neg < -1e-6 and dt < 1.0,
           f"g+={g_pos:.3g}, g-={g_neg:.3g}, {dt:.2f}s")


def _project_b_oracle(v, m):
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
    return cands[int(np.argmin([np.sum((c - v) ** 2) for c in cands]))]


def test_acceptance_04_projection_correctness():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_b = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        v = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        got = project_b(v, BFeasibleSet(n, m))
        want = _project_b_oracle(v, m)
        worst_b = max(worst_b, float(np.abs(got - want).max()))
    worst_eig, worst_corner, worst_idem = 0.0, 0.0, 0.0
    for _ in range(200):
        q = int(rng.integers(1, 21))
        S = rng.standard_normal((q + 1, q + 1))
        V = project_psd_corner(S + S.T)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(V)[0]))
        worst_corner = max(worst_corner, abs(V[-1, -1] - 1.0))
        V2 = project_psd_corner(V)
        worst_idem = max(worst_idem, float(np.abs(V2 - V).max()))
    dt = time.time() - t0
    ok = (worst_b <= 1e-8 and worst_eig >= -1e-9 and worst_corner == 0.0
          and worst_idem <= 2e-9 and dt < 30.0)
    report(4, "projection correctness (200 QP-oracle + 200 PSD repairs)", ok,
           f"b_dev={worst_b:.2e}, min_eig={worst_eig:.2e}, idem={worst_idem:.2e}, {dt:.1f}s")


def _tiny_lambda():
    return 0.5 * math.sqrt(4 * math.log(4))


def test_acceptance_05_oracle_equivalence():
    t0 = time.time()
    lam = _tiny_lambda()
    matches, gaps = 0, []
    for seed in range(10):
        data = tiny_instance(seed)
        res = solve_invex(data, SolverConfig(m=4, lam=lam))
        orc = enumerate_best_subset(data, 4, lam)
        theta = refit(data, res.b_rounded, lam)
        sol_obj = subset_objective(data, res.selection, theta, lam)
        gap = (sol_obj - orc.objective) / max(1.0, abs(orc.objective))
        gaps.append(gap)
        matches += tuple(sorted(res.selection)) == orc.J_star
    dt = time.time() - t0
    ok = matches >= 9 and max(gaps) <= 1e-4 and dt < 120.0
    report(5, "oracle equivalence on 10 tiny instances", ok,
           f"matches={matches}/10, max_gap={max(gaps):.2e}, {dt:.1f}s")


def test_acceptance_06_kkt_certification():
    t0 = time.time()
    instances = ([("tiny", tiny_instance(s), 4, _tiny_lambda()) for s in range(10)]
                 + [("mid", mid_instance(100 + s), 60,
                     0.5 * math.sqrt(60 * math.log(20))) for s in range(5)])
    identity_ok = True
    probabilistic_ok = 0
    for tag, data, m, lam in instances:
        res = solve_invex(data, SolverConfig(m=m, lam=lam))
        support = np.flatnonzero(np.abs(data.theta_star) > 0)
        th_S = refit(data, res.b_rounded, lam, support=support)[support]
        cert = build_duals(data, res.b_rounded, th_S, lam, support)
        rep = kkt_residuals(cert, data, res.b_rounded, lift_parameter(th_S),
                            lam, support=support)
        identity_ok &= (rep.stationarity_vartheta_norm <= 1e-10
                        and rep.comp_slack_max <= 1e-10
                        and rep.nullvec_residual <= 1e-6)
        wbar, wok = strict_dual_feasibility(data, res.b_rounded, th_S, lam,
                                            support, kappa=KAPPA)
        lo, hi = cert.nu_interval
        probabilistic_ok += (cert.feasible and lo <= hi
                             and rep.second_eig > 0
                             and rep.dual_feas_min_eig >= -1e-8 and wok)
    dt = time.time() - t0
    frac = probabilistic_ok / len(instances)
    ok = identity_ok and frac >= 0.8 and dt < 300.0
    report(6, "KKT certification on 15 instances", ok,
           f"identities={'ok' if identity_ok else 'VIOLATED'}, "
           f"dual feasibility {probabilistic_ok}/15, {dt:.0f}s")


def _monotone_violations(values, direction, tol=1e-9):
    """Count adjacent steps moving against `direction` (+1 up / -1 down)."""
    v = np.asarray(values, dtype=float)
    diffs = direction * np.diff(v)
    return int(np.count_nonzero(diffs < -tol))


def test_acceptance_07_fig2_reproduction(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        p=50, k=4, clean_count_rule="theory", outlier_rule="half",
        C_values=(0.5, 0.7, 0.9, 1.1, 1.3, 1.5), c_lambda=0.05,
        methods=("invex", "lasso"), seeds=(0, 1, 2, 3, 4), sigma_e=0.1,
        output_dir=str(tmp_path / "fig2"))
    assert cfg.r == 533 and math.ceil(cfg.r / 2) == 267
    out = run_sweep(cfg)
    agg = out["aggregate"]

    def series(method, key):
        rows = sorted((a for a in agg if a["method"] == method),
                      key=lambda a: a["m"])
        return [a[f"{key}_mean"] for a in rows]

    inv_m = series("invex", "mistakes_frac")
    inv_j = series("invex", "jaccard")
    inv_e = series("invex", "norm_error")
    las_e = series("lasso", "norm_error")
    at_largest = (inv_m[-1] <= 0.05 and inv_j[-1] >= 0.95
                  and inv_e[-1] < las_e[-1])
    vio = (_monotone_violations(inv_m, -1), _monotone_violations(inv_j, +1),
           _monotone_violations(inv_e, -1))
    dt = time.time() - t0
    ok = at_largest and all(v <= 1 for v in vio) and dt <= 1800.0
    report(7, "desk-scale m-sweep reproduction (p=50, k=4)", ok,
           f"mistakes={inv_m[-1]:.3f}, jaccard={inv_j[-1]:.3f}, "
           f"err {inv_e[-1]:.3f} vs lasso {las_e[-1]:.3f}, "
           f"monotone violations={vio}, {dt:.0f}s")


def test_acceptance_08_proportion_sweep(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        p=30, k=4, clean_count_rule="theory", outlier_rule=(0.05, 0.15, 0.3, 0.45),
        C_values=(1.5,), c_lambda=0.05, methods=("invex", "lasso"),
        seeds=(0, 1, 2, 3, 4), sigma_e=0.1, output_dir=str(tmp_path / "prop"))
    out = run_sweep(cfg)
    agg = out["aggregate"]

    def by_prop(method, key):
        rows = sorted((a for a in agg if a["method"] == method),
                      key=lambda a: a["x"])
        return [(a["x"], a[f"{key}_mean"]) for a in rows]

    inv_j = by_prop("invex", "jaccard")
    las_j = by_prop("lasso", "jaccard")
    inv_e = by_prop("invex", "norm_error")
    las_e = by_prop("lasso", "norm_error")
    jac_ok = all(ij >= lj - 1e-12 for (_, ij), (_, lj) in zip(inv_j, las_j))
    err_ok = all(ie <= le + 1e-12 for (x, ie), (_, le) in zip(inv_e, las_e)
                 if x >= 0.3)
    dt = time.time() - t0
    ok = jac_ok and err_ok and dt <= 900.0
    report(8, "outlier-proportion sweep (p=30, k=4)", ok,
           f"invex jac {[round(v,3) for _, v in inv_j]} vs lasso "
           f"{[round(v,3) for _, v in las_j]}; err at >=0.3 "
           f"{[(x, round(v,3)) for x, v in inv_e if x >= 0.3]} vs "
           f"{[(x, round(v,3)) for x, v in las_e if x >= 0.3]}, {dt:.0f}s")


def test_acceptance_09_assumption_diagnostics():
    t0 = time.time()
    hits = 0
    for seed in range(100):
        spec = GenSpec(p=50, k=4, r=500, n_outliers=0, seed=seed, sigma_e=0.1)
        data = generate(spec)
        support = np.flatnonzero(np.abs(data.theta_star) > 0)
        rep = assumption_check(data, support)
        hits += rep.min_eig_SS >= 0.5 and rep.incoherence <= 0.75
    dt = time.time() - t0
    ok = hits >= 95 and dt < 120.0
    report(9, "finite-sample assumption diagnostics (100 seeds)", ok,
           f"hits={hits}/100, {dt:.0f}s")


def test_acceptance_10_cli_determinism(tmp_path):
    import json
    import subprocess
    import sys
    t0 = time.time()
    cfg = {"p": 6, "k": 2, "clean_count_rule": 24, "outlier_rule": "half",
           "C_values": [0.4, 0.8], "c_lambda": 0.1,
           "methods": ["invex", "lasso"], "seeds": [0, 1], "sigma_e": 0.1,
           "max_resamples": 500, "output_dir": "unused"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for run in ("r1", "r2"):
        r = subprocess.run(
            [sys.executable, "-m", "invexreg.cli", "sweep", "--config",
             str(cfg_path), "--out", str(tmp_path / run)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append({name.name: name.read_bytes()
                     for name in sorted((tmp_path / run).iterdir())
                     if name.suffix in (".csv", ".svg") and name.name != "timings.csv"})
    same = outs[0].keys() == outs[1].keys() and all(
        outs[0][k] == outs[1][k] for k in outs[0])
    dt = time.time() - t0
    report(10, "CLI sweep byte determinism", same and dt < 300.0,
           f"{len(outs[0])} artifacts compared, {dt:.0f}s")
