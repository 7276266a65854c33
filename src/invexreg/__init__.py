"""Outlier-robust sparse linear regression via an invex lifted relaxation.

The squared loss of each sample is rewritten as a linear functional of a
PSD-constrained lifted matrix, selection weights pick the clean samples,
and a primal-dual witness construction certifies optimality of the result
numerically.  Run `invexreg --help` for the command-line interface, and see
benchmarks/README.md for the benchmark harness and its workloads.
"""

from .baselines import adaptive_huber_lasso, lasso, trimmed_lasso
from .bench import ExperimentConfig, run_sweep
from .certify import (AssumptionReport, DualCertificate, KKTReport,
                      assumption_check, build_duals, invexity_gap, invexity_witness,
                      kkt_residuals, nonconvexity_witness,
                      strict_dual_feasibility)
from .datagen import GenSpec, generate
from .metrics import (clean_recovery_mistakes, norm_error, support_jaccard,
                      theory_delta_m)
from .model import (Dataset, lift_parameter, lift_sample, load_dataset, objective,
                    sample_losses, save_dataset, squared_loss)
from .oracle import OracleResult, enumerate_best_subset, grid_search_theta
from .projections import BFeasibleSet, project_b, project_psd_corner
from .solver import SolveResult, SolverConfig, refit, solve_invex

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BFeasibleSet", "Dataset",
    "DualCertificate", "ExperimentConfig", "GenSpec",
    "KKTReport", "OracleResult", "SolveResult", "SolverConfig", "adaptive_huber_lasso",
    "assumption_check", "build_duals", "clean_recovery_mistakes",
    "enumerate_best_subset", "generate", "grid_search_theta", "invexity_gap",
    "invexity_witness", "kkt_residuals", "lasso", "lift_parameter", "lift_sample",
    "load_dataset", "nonconvexity_witness",
    "norm_error", "objective", "project_b", "project_psd_corner",
    "refit", "run_sweep", "sample_losses",
    "save_dataset", "solve_invex", "squared_loss", "strict_dual_feasibility",
    "support_jaccard", "theory_delta_m", "trimmed_lasso",
]
