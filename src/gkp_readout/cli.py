"""Command-line entry point.

Subcommands: fig1a, fig1b, fig1c (sweep tables), optimize-lambda,
state-info, validate. Exit codes: 0 success, 2 config error,
3 convergence failure. Failures print a machine-readable JSON record
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import analytics, sweep
from .fock import TruncationError
from .states import (
    auto_cutoff,
    db_to_delta,
    delta_db,
    effective_squeezing,
    export_state_csv,
    export_state_json,
    helstrom_bound,
    make_state_pair,
    purity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _config_from_args(args) -> sweep.SweepConfig:
    if args.config:
        cfg = sweep.parse_config_file(args.config)
    else:
        cfg = sweep.SweepConfig()
    overrides = {}
    for attr, key in (("delta_db_min", "delta_db_min"), ("delta_db_max", "delta_db_max"),
                      ("points", "delta_db_points"), ("output", "output_path"),
                      ("format", "format")):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[key] = val
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _add_sweep_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--delta-db-min", dest="delta_db_min", type=float)
    p.add_argument("--delta-db-max", dest="delta_db_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--output", help="write the table here as well as stdout")
    p.add_argument("--format", choices=["csv", "json"])


def cmd_sweep(args, runner) -> int:
    cfg = _config_from_args(args)
    rows = runner(cfg)
    sys.stdout.write(sweep.emit(rows, cfg))
    return EXIT_OK


def cmd_optimize_lambda(args) -> int:
    delta = db_to_delta(args.delta_db)
    lam = analytics.optimal_lambda(delta)
    result = {
        "delta_db": args.delta_db,
        "delta": delta,
        "optimal_lambda": lam,
        "lambda_small_delta_seed": analytics.lambda_seed(delta),
        "p_err_improved": analytics.p_err_improved_formula(delta, lam),
        "p_err_simple": analytics.p_err_simple_formula(delta),
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_state_info(args) -> int:
    delta = db_to_delta(args.delta_db)
    kappa = args.kappa if args.kappa else None
    spec = auto_cutoff(delta, kappa)
    pair = make_state_pair(spec, delta, kappa, args.sigma)
    deff = effective_squeezing(spec, pair.state0)
    result = {
        "delta_db": args.delta_db,
        "delta": delta,
        "kappa": pair.kappa,
        "sigma": args.sigma,
        "cutoff_N": spec.cutoff,
        "purity": purity(pair.state0),
        "delta_eff": deff,
        "delta_eff_db": delta_db(deff),
    }
    if pair.is_pure:
        result["p_err_helstrom"] = helstrom_bound(pair.state0, pair.state1)
    print(json.dumps(result, indent=2))
    if args.dump:
        if args.dump.endswith(".csv"):
            export_state_csv(pair.state0, args.dump)
        else:
            export_state_json(pair.state0, args.dump)
    return EXIT_OK


def cmd_validate(args) -> int:
    """Run a quick in-process invariant suite and print one line each."""
    from .fock import HilbertSpec, LinearOp, displacement, expectation, make_quadratures, squeeze, unitarity_defect, vacuum
    from .readout import CircuitParams, simulated_p_err

    checks = []
    spec = HilbertSpec(80)
    x, p = make_quadratures(spec)
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix - 1j * np.eye(spec.dim)
    m = spec.cutoff - 5
    checks.append(("commutator [X,P]=i (lower block)",
                   float(np.max(np.abs(comm[:m, :m]))) < 1e-8))
    d = displacement(spec, 0.7 + 0.3j)
    checks.append(("displacement unitarity", unitarity_defect(d, spec) < 1e-9))
    sv = squeeze(spec, 0.5) @ vacuum(spec)
    var = expectation(LinearOp(x.matrix @ x.matrix), sv).real - expectation(x, sv).real ** 2
    checks.append(("squeezed-vacuum X variance", abs(var - 0.125) < 1e-9))
    spec150 = auto_cutoff(0.3162)
    pair = make_state_pair(spec150, 0.3162)
    out = simulated_p_err(pair, CircuitParams(0.0, 1))
    checks.append(("probability conservation", all(
        abs(sum(b.probability for b in tree) - 1) < 1e-10
        for tree in (out.branches_0, out.branches_1))))
    checks.append(("Helstrom dominance",
                   out.p_err >= helstrom_bound(pair.state0, pair.state1) - 1e-10))
    lam = analytics.optimal_lambda(0.3162)
    sim = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
    formula = analytics.p_err_improved_formula(0.3162, lam)
    checks.append(("formula agreement at 10 dB",
                   abs(sim - formula) < max(0.1 * formula, 1e-5)))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return EXIT_OK if ok else EXIT_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gkp-readout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fig1a", "fig1b", "fig1c"):
        p = sub.add_parser(name, help=f"emit the {name} sweep table")
        _add_sweep_flags(p)
    p = sub.add_parser("optimize-lambda", help="optimal interaction strength at one squeezing")
    p.add_argument("--delta-db", dest="delta_db", type=float, required=True)
    p = sub.add_parser("state-info", help="state quality metrics at one parameter point")
    p.add_argument("--delta-db", dest="delta_db", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--kappa", type=float)
    p.add_argument("--dump", help="export the mu=0 state to this path (.csv or .json)")
    sub.add_parser("validate", help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    runners = {"fig1a": sweep.run_fig1a, "fig1b": sweep.run_fig1b, "fig1c": sweep.run_fig1c}
    try:
        if args.command in runners:
            return cmd_sweep(args, runners[args.command])
        if args.command == "optimize-lambda":
            return cmd_optimize_lambda(args)
        if args.command == "state-info":
            return cmd_state_info(args)
        return cmd_validate(args)
    # LinAlgError subclasses ValueError, so it is caught first: a failed
    # eigensolver is a convergence failure, not a config error.
    except (np.linalg.LinAlgError, TruncationError, RuntimeError) as exc:
        json.dump({"error": {"type": "convergence", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONVERGENCE
    except (sweep.ConfigError, ValueError) as exc:
        json.dump({"error": {"type": "config", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
