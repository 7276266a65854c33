"""The benchmark's workloads and the package functions its traced run wraps.

Each workload is one `invexreg sweep` config restricted to some methods and
cells.  The timed sweep runs on a fixed panel: the first seed of the config
file.  Solve time depends so strongly on the data (one fig2_p50 seed takes
7 s, another 22 s) that a per-run draw of data seeds cannot be averaged
within the run length; see README.md.  The run's --seed picks the data of
an extra, untimed probe trial set instead, so every run checks the outputs
on data the timed panel never sees.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from spans import Target

PROBE_SEED_BASE = 1000   # probe data seeds stay clear of the configs' 0-4


@dataclass(frozen=True)
class Workload:
    name: str
    config: str             # path of the sweep config, relative to the repo root
    methods: tuple          # methods run in the sweep
    subject: tuple          # methods the end-to-end timing and quality describe
    workers: int            # process-pool size for the untraced sweeps
    C_values: tuple | None = None   # None keeps every cell of the config
    check_fig2_shape: bool = False  # gate acceptance 07's shape at the largest m


WORKLOADS = {w.name: w for w in (
    Workload("fig2_p50", "configs/fig2_p50.json", ("invex", "lasso"), ("invex",), 1,
             check_fig2_shape=True),
    Workload("baselines_p100_pool", "configs/fig2_p100.json",
             ("lasso", "adahuber", "trimmed"), ("lasso", "adahuber", "trimmed"), 2),
    # Not listed in BENCHMARK.json.  fig2_p100_invex is for runs by hand: its
    # 10-run spread reached the largest bound allowed (see README.md).
    # smoke_p6 is a p=6 sweep for the benchmark's own tests.
    Workload("fig2_p100_invex", "configs/fig2_p100.json", ("invex",), ("invex",), 1,
             C_values=(1.1, 1.5)),
    Workload("smoke_p6", "benchmarks/smoke_p6.json", ("invex", "lasso"), ("invex",), 2),
)}


def experiment(root: Path, wl: Workload, output_dir: Path, seeds: tuple | None = None,
               C_values: tuple | None = None):
    """The workload's ExperimentConfig; default seeds are the timed panel."""
    from invexreg.bench import ExperimentConfig

    cfg = ExperimentConfig.from_json(root / wl.config)
    return dataclasses.replace(
        cfg, methods=wl.methods,
        seeds=cfg.seeds[:1] if seeds is None else seeds,
        C_values=C_values or wl.C_values or cfg.C_values,
        output_dir=str(output_dir))


def probe_experiment(root: Path, wl: Workload, output_dir: Path, seed: int):
    """The untimed probe: the workload's largest cell on a data seed from --seed."""
    cfg = experiment(root, wl, output_dir)
    return experiment(root, wl, output_dir, seeds=(PROBE_SEED_BASE + seed,),
                      C_values=(max(cfg.C_values),))


def keep_solve(tracer, args, kwargs, result) -> None:
    """Keep (data, SolverConfig, SolveResult) of every invex solve."""
    tracer.solves.append((args[0], args[1], result))


def count_sample_losses_flops(tracer, args, kwargs, result) -> None:
    """Computed, not measured: the quadratic form costs about 2 n p^2 flops."""
    n, p = args[0].shape
    tracer.add("model.sample_losses.flops", 2.0 * n * p * p)


# Attributes are wrapped where the package looks them up: solver.py binds
# sample_losses at import, so its calls go through invexreg.solver, not
# invexreg.model.  numpy.linalg.eigh is looked up on the module at each call.
SOLVE = Target("invexreg.bench", "solve_invex", "solver.solve_invex", keep_solve)
SOLVE_CAPTURE = (SOLVE,)

TRACE_TARGETS = (
    Target("invexreg.bench", "run_trial", "bench.run_trial"),
    Target("invexreg.bench", "generate", "datagen.generate"),
    SOLVE,
    Target("invexreg.solver", "grad_vartheta", "solver.grad_vartheta"),
    Target("invexreg.solver", "sample_losses", "model.sample_losses", count_sample_losses_flops),
    Target("invexreg.certify", "sample_losses", "model.sample_losses", count_sample_losses_flops),
    Target("invexreg.solver", "prox_entrywise_l1", "projections.prox_entrywise_l1"),
    Target("invexreg.solver", "project_psd_corner", "projections.project_psd_corner"),
    Target("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    Target("invexreg.solver", "refit", "solver.refit"),
    Target("invexreg.bench", "refit", "solver.refit"),
    Target("invexreg.bench", "build_duals", "certify.build_duals"),
    Target("invexreg.bench", "kkt_residuals", "certify.kkt_residuals"),
    Target("invexreg.bench", "lasso", "baselines.lasso"),
    Target("invexreg.bench", "adaptive_huber_lasso", "baselines.adaptive_huber_lasso"),
    Target("invexreg.bench", "trimmed_lasso", "baselines.trimmed_lasso"),
    Target("invexreg.bench", "write_line_plot", "svgplot.write_line_plot"),
)
