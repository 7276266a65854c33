from types import SimpleNamespace

import numpy as np
import pytest

import derive

TIMINGS = [
    {"method": "invex", "m": "10", "n_outliers": "5", "seed": "0", "wall_ms": "1500.0"},
    {"method": "invex", "m": "20", "n_outliers": "5", "seed": "0", "wall_ms": "500.0"},
    {"method": "lasso", "m": "10", "n_outliers": "5", "seed": "0", "wall_ms": "10.0"},
    {"method": "adahuber", "m": "10", "n_outliers": "5", "seed": "0", "wall_ms": "30.0"},
]


def row(method, m, mistakes="", jaccard="", norm_error="", kkt="", error=""):
    return {"method": method, "m": m, "mistakes_frac": mistakes, "jaccard": jaccard,
            "norm_error": norm_error, "kkt_feasible": kkt, "error": error}


RESULTS = [
    row("invex", "10", "0.2", "0.5", "1.0", "0"),
    row("invex", "20", "0.0", "1.0", "0.2", "1"),
    row("lasso", "10", "", "0.25", "3.0"),
    row("adahuber", "10", error="FloatingPointError"),
]


def test_trial_times():
    assert derive.trial_walls(TIMINGS, ("invex",)) == [1.5, 0.5]
    assert derive.s_per_trial([TIMINGS], ("invex",)) == pytest.approx(1.0)
    assert derive.s_per_trial([TIMINGS], derive.BASELINES) == pytest.approx(0.02)
    assert derive.s_per_trial([TIMINGS], ("trimmed",)) is None


def test_trial_times_are_per_trial_medians_over_sweeps():
    def sweep(a, b):
        return [dict(TIMINGS[0], wall_ms=str(a)), dict(TIMINGS[1], wall_ms=str(b))]

    # trial 1: median(1, 3, 2) = 2 s; trial 2: median(5, 1, 4) = 4 s
    sweeps = [sweep(1000, 5000), sweep(3000, 1000), sweep(2000, 4000)]
    assert derive.s_per_trial(sweeps, ("invex",)) == pytest.approx(3.0)


def test_quality_means_skip_errors_and_blanks():
    assert derive.column_mean(RESULTS, ("invex",), "mistakes_frac") == pytest.approx(0.1)
    assert derive.column_mean(RESULTS, ("invex",), "norm_error") == pytest.approx(0.6)
    assert derive.column_mean(RESULTS, derive.BASELINES, "norm_error") == pytest.approx(3.0)
    assert derive.column_mean(RESULTS, derive.BASELINES, "mistakes_frac") is None
    assert derive.error_count(RESULTS) == 1
    assert derive.kkt_feasible_frac(RESULTS) == pytest.approx(0.5)


def test_sweep_overhead_and_pool_efficiency():
    walls = [1.5, 0.5, 0.01, 0.03]
    assert derive.overhead_s(2.5, walls, 1) == pytest.approx(0.46)
    assert derive.overhead_s(1.5, walls, 2) == pytest.approx(0.48)
    assert derive.pool_efficiency(1.25, walls, 2) == pytest.approx(0.816)


def solve(theta, picked, m, lam, outer=3, converged=True):
    b = np.zeros(4)
    b[picked] = 1.0
    res = SimpleNamespace(b_rounded=b, theta_hat=np.asarray(theta, float),
                          outer_iters=outer, converged=converged)
    return SimpleNamespace(m=m, lam=lam), res


def test_invex_objective_and_solve_stats():
    data = SimpleNamespace(X=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]),
                           y=np.array([1.0, 2.0, 0.0, 9.0]))
    scfg, res = solve([1.0, -1.0], [0, 1, 2], 3, 0.5)
    # residuals 0, 3, 0 at the selection; penalty 0.5 * (2 + 1)^2
    assert derive.invex_objective(data, scfg, res) == pytest.approx((9.0 + 4.5) / 3)
    other = solve([0.0, 0.0], [0, 1], 2, 0.0, outer=5, converged=False)
    stats = derive.solve_stats([(data, scfg, res), (data, *other)])
    assert stats["outer_iters"] == 4.0 and stats["converged_frac"] == 0.5
    assert stats["objective"] == pytest.approx(((9.0 + 4.5) / 3 + 5.0 / 2) / 2)
    assert derive.solve_stats([]) == {"objective": None, "outer_iters": None,
                                      "converged_frac": None}


def test_selection_size_check():
    good = solve([0.0], [0, 1], 2, 0.1)
    bad = solve([0.0], [0, 1, 2], 2, 0.1)
    assert derive.check_selection_sizes([(None, *good)]) == []
    assert derive.check_selection_sizes([(None, *bad)]) == [
        "invex b_rounded selects 3 rows, m=2"]


def agg(method, m, mistakes="", jaccard="", err=""):
    return {"method": method, "m": m, "mistakes_frac_mean": mistakes,
            "jaccard_mean": jaccard, "norm_error_mean": err}


def test_fig2_shape_check_reads_the_largest_m():
    rows = [agg("invex", "49", "0.4", "0.2", "2.0"), agg("lasso", "49", "", "0.1", "1.0"),
            agg("invex", "484", "0.0", "1.0", "0.03"), agg("lasso", "484", "", "0.08", "0.7")]
    assert derive.check_fig2_shape(rows) == []
    rows[2] = agg("invex", "484", "0.0", "0.9", "0.03")
    assert len(derive.check_fig2_shape(rows)) == 1
    rows[2] = agg("invex", "484", "0.0", "1.0", "0.8")
    assert len(derive.check_fig2_shape(rows)) == 1
