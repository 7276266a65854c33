"""Sweep benchmark for invexreg: end-to-end metrics of `invexreg sweep`
workloads, and per-layer metrics from a separate traced run.

    python3 benchmarks/run.py --workload fig2_p50 --seed 0 --seconds 20 --trace 0

--trace 0 times the workload's sweep, unpatched, as `invexreg sweep` runs
it; --trace 1 runs it once untraced and once in-process with every layer
wrapped.  Both also run an untimed probe on data drawn from --seed.  Prints
one line per metric, then, as the last line, the JSON result
{"correct", "attempted", "failed", "metrics"}.  Exits 1 when an output
check fails and 2 when the benchmark cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Only envinfo is imported here: everything that loads numpy is imported
# inside the functions, after main() has set the thread pins.
import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5       # at least; one more before every timed sweep
MIN_REPS = 3           # a median that can outvote one outlying sweep


@dataclass
class Sweep:
    sweep_s: float
    results: list[dict]
    timings: list[dict]
    aggregate: list[dict]
    files: dict[str, bytes]
    tracer: object


def run_once(cfg, workers: int, targets=()) -> Sweep:
    """One run_sweep call, timed; `targets` are wrapped for its length only."""
    from derive import read_rows
    from invexreg.bench import run_sweep
    from spans import Tracer, patched

    tracer = Tracer()
    with patched(tracer, targets):
        t0 = time.perf_counter()
        run_sweep(cfg, workers=workers)
        sweep_s = time.perf_counter() - t0
    out = Path(cfg.output_dir)
    files = {name: (out / name).read_bytes() for name in ("results.csv", "aggregate.csv")}
    return Sweep(sweep_s, read_rows(out / "results.csv"), read_rows(out / "timings.csv"),
                 read_rows(out / "aggregate.csv"), files, tracer)


def setup_once(wl) -> float:
    """Fresh-process time until the first trial of the workload can start."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), wl.name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return seconds


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(wl, out: Path, seconds: float) -> tuple[dict, dict, list[Sweep], list[float]]:
    """Untraced sweeps of the panel for `seconds`, at least MIN_REPS of them.

    Returns the end-to-end metrics as {name: (value, unit)}, the figures
    that are reported but not gated, the sweeps and the set-up probe times.
    """
    import derive
    from workloads import experiment

    cfg = experiment(ROOT, wl, out / "sweep")
    workers = min(wl.workers, envinfo.usable_cpus())
    setup, reps = [], []
    t0 = time.perf_counter()
    # Machine speed drifts by tens of percent over seconds on a shared host,
    # so set-up probes are spread between the sweeps, and trial times are
    # medians per trial over the sweeps.
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
        setup.append(setup_once(wl))
        reps.append(run_once(cfg, workers))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_once(wl))
    first = reps[0].results

    def per_trial(methods):
        return derive.s_per_trial([r.timings for r in reps], methods)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_s": (statistics.median(r.sweep_s for r in reps), "s"),
        "trial_s": (per_trial(wl.subject), "s"),
        "norm_error": (derive.column_mean(first, wl.subject, "norm_error"), "1"),
        "jaccard": (derive.column_mean(first, wl.subject, "jaccard"), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    invex, base = (derive.INVEX,), derive.BASELINES
    reported = {
        "invex_s_per_trial": per_trial(invex),
        "baseline_s_per_trial": per_trial(base),
        "error_frac": derive.error_count(first) / len(first),
        "invex_mistakes_frac": derive.column_mean(first, invex, "mistakes_frac"),
        "invex_jaccard": derive.column_mean(first, invex, "jaccard"),
        "invex_norm_error": derive.column_mean(first, invex, "norm_error"),
        "baseline_norm_error": derive.column_mean(first, base, "norm_error"),
        "kkt_feasible_frac": derive.kkt_feasible_frac(first),
        "sweeps_timed": len(reps),
    }
    return metrics, reported, reps, setup


def measure_layers(wl, out: Path) -> tuple[dict, list[Sweep]]:
    """One untraced sweep of the panel, then one traced in-process sweep.

    Returns the per-layer metrics as {name: (value, unit)} and both sweeps.
    """
    import derive
    from spans import layer_metrics
    from workloads import TRACE_TARGETS, experiment

    cfg = experiment(ROOT, wl, out / "sweep")
    workers = min(wl.workers, envinfo.usable_cpus())
    plain = run_once(cfg, workers)
    traced = run_once(cfg, 1, TRACE_TARGETS)
    tracer = traced.tracer
    tracer.write(out / "spans.npz")

    stats = derive.solve_stats(tracer.solves)
    walls = derive.trial_walls(plain.timings, wl.methods)
    traced_walls = derive.trial_walls(traced.timings, wl.methods)
    metrics = layer_metrics(tracer, TRACE_TARGETS)
    metrics.update({
        "model.sample_losses.flops": (
            tracer.counters.get("model.sample_losses.flops", 0.0), "flop"),
        "solver.outer_iters": (stats["outer_iters"], "count"),
        "solver.converged_frac": (stats["converged_frac"], "frac"),
        "solver.objective": (stats["objective"], "1"),
        "solver.mistakes_frac": (
            derive.column_mean(traced.results, (derive.INVEX,), "mistakes_frac"), "frac"),
        "certify.kkt_feasible_frac": (derive.kkt_feasible_frac(traced.results), "frac"),
        "bench.error_frac": (
            derive.error_count(traced.results) / len(traced.results), "frac"),
        "bench.overhead_s": (derive.overhead_s(plain.sweep_s, walls, workers), "s"),
        "bench.pool_efficiency": (
            derive.pool_efficiency(plain.sweep_s, walls, workers), "frac"),
        "trace.overhead_frac": (sum(traced_walls) / sum(walls) - 1.0, "frac"),
    })
    # an invex figure reads 0 on a workload without invex trials
    metrics = {k: (0.0 if v is None else v, u) for k, (v, u) in metrics.items()}
    return metrics, [plain, traced]


def check_outputs(wl, sweeps: list[Sweep], solves: list) -> list[str]:
    """Byte-identical results across the sweeps of the panel, exactly m
    rows per invex selection, and acceptance 07's shape where it applies."""
    import derive

    first = sweeps[0]
    problems = [f"{name} differs between sweeps of one workload"
                for other in sweeps[1:] for name in first.files
                if other.files[name] != first.files[name]]
    problems += derive.check_selection_sizes(solves)
    if wl.check_fig2_shape:
        problems += derive.check_fig2_shape(first.aggregate)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                    help="directory for sweep outputs, spans and result.json")
    args = ap.parse_args(argv)

    try:
        envinfo.pin_threads()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "invexreg" / "__init__.py").is_file():
        print(f"error: no invexreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    try:
        import derive
        from workloads import SOLVE_CAPTURE, WORKLOADS, probe_experiment

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        wl = WORKLOADS[args.workload]
        out = args.out / wl.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        env = envinfo.record(ROOT)

        if args.trace:
            metrics, sweeps = measure_layers(wl, out)
            reported, solves, setup = {}, list(sweeps[1].tracer.solves), []
        else:
            metrics, reported, sweeps, setup = measure(wl, out, args.seconds)
            solves = []
        probe = run_once(probe_experiment(ROOT, wl, out / "probe", args.seed), 1,
                         SOLVE_CAPTURE)
        problems = check_outputs(wl, sweeps, solves + probe.tracer.solves)
    except Exception:
        traceback.print_exc()
        return 2

    rows = [row for s in sweeps + [probe] for row in s.results]
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": derive.error_count(rows),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(out / "result.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "problems": problems,
                   "reported": reported, "setup_probes_s": setup,
                   "sweep_s": [s.sweep_s for s in sweeps],
                   "trial_walls_s": [derive.trial_walls(s.timings, wl.methods) for s in sweeps],
                   "probe_seed": probe.results[0]["seed"], "result": result}, fh, indent=2)
        fh.write("\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for name, entry in result["metrics"].items():
        print(f"{name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in reported.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<48} {shown:>14} (reported, not gated)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
