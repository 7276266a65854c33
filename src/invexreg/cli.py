"""Command-line interface.

Subcommands: gen (dataset to files), solve (dataset -> result JSON),
certify (dataset + result -> KKT/assumption reports -> verdict, the sweep's
kkt_feasible), oracle (tiny-instance enumeration), sweep (experiment config
-> CSVs/SVGs).  Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import certify as cert_mod
from .bench import ExperimentConfig, certify_at_true_support, lambda_from_m, run_sweep
from .datagen import GenSpec, generate
from .model import _write_json, load_dataset, save_dataset
from .oracle import enumerate_best_subset
from .solver import SolverConfig, solve_invex


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="invexreg",
                     description="Outlier-robust sparse regression via the "
                                 "invex lifted relaxation")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="generate a synthetic dataset")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--r", type=int, required=True, help="clean sample count")
    g.add_argument("--outliers", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sigma-e", type=float, default=0.1)
    g.add_argument("--rho-min", type=float, default=0.0)
    g.add_argument("--max-resamples", type=int, default=100)
    g.add_argument("--out", required=True, help="output path prefix")

    s = sub.add_parser("solve", help="solve the relaxation on a dataset")
    s.add_argument("--data", required=True, help="dataset path prefix")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--lam", type=float, default=None,
                   help="default: the sweep's lambda for m, c_lambda sqrt(m ln p)")
    s.add_argument("--out", required=True)

    c = sub.add_parser("certify", help="build duals and evaluate KKT residuals")
    c.add_argument("--data", required=True)
    c.add_argument("--result", required=True, help="solve result JSON")
    c.add_argument("--out", required=True)

    o = sub.add_parser("oracle", help="enumerate the best size-m subset of a tiny "
                                      "instance: writes J*, its refit and objective")
    o.add_argument("--data", required=True)
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--lam", type=float, required=True)
    o.add_argument("--cap", type=int, default=100_000)
    o.add_argument("--out", required=True)

    w = sub.add_parser("sweep", help="run an experiment sweep from a config")
    w.add_argument("--config", required=True, help="experiment config JSON")
    w.add_argument("--out", default=None, help="override output_dir")
    w.add_argument("--workers", type=int, default=None)
    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(p=args.p, k=args.k, r=args.r, n_outliers=args.outliers,
                   seed=args.seed, sigma_e=args.sigma_e,
                   max_resamples=args.max_resamples, rho_min=args.rho_min)
    data = generate(spec)
    csv_path, json_path = save_dataset(data, args.out)
    print(f"wrote {csv_path} and {json_path} (n={data.n}, rho={data.rho})")
    return 0


def _cmd_solve(args) -> int:
    data = load_dataset(args.data)
    lam = args.lam
    if lam is None and args.m > 0:  # SolverConfig reports a bad m
        lam = lambda_from_m(args.m, data.p, ExperimentConfig.c_lambda)
    cfg = SolverConfig(m=args.m, lam=lam)
    res = solve_invex(data, cfg)
    _write_json(args.out, res)
    print(f"wrote {args.out} (converged={res.converged}, "
          f"outer={res.outer_iters}, "
          f"dual_min_eig={res.dual_min_eig:.3g})")
    return 0


def _cmd_certify(args) -> int:
    data = load_dataset(args.data)
    with open(args.result) as fh:
        result = json.load(fh)
    sel = np.asarray(result["b_rounded"], dtype=float)
    lam = float(result["config"]["lam"])
    support, th_S, cert, rep, kkt_feasible = certify_at_true_support(data, sel, lam)
    assumption = cert_mod.assumption_check(data, support, selection=sel)
    payload = {"dual_certificate": cert, "kkt_report": rep,
               "assumption_report": assumption, "kkt_feasible": kkt_feasible}
    try:
        wbar, ok = cert_mod.strict_dual_feasibility(data, sel, th_S, lam, support)
        payload["strict_dual"] = {"omega_bar_inf": wbar, "pass": ok}
    except (cert_mod.SingularSubmatrix, ValueError) as exc:
        payload["strict_dual"] = {"error": str(exc)}
    _write_json(args.out, payload)
    print(f"wrote {args.out} (kkt_feasible={kkt_feasible}, "
          f"second_eig={rep.second_eig:.3g})")
    return 0


def _cmd_oracle(args) -> int:
    data = load_dataset(args.data)
    res = enumerate_best_subset(data, args.m, args.lam, cap=args.cap)
    _write_json(args.out, res)
    print(f"wrote {args.out} (J*={list(res.J_star)}, objective={res.objective:.6g})")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    out = run_sweep(cfg, workers=args.workers)
    n_err = sum(1 for row in out["rows"] if row["error"])
    print(f"wrote {out['results_csv']} ({len(out['rows'])} rows, {n_err} errors)")
    for path in out["plots"]:
        print(f"wrote {path}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
