"""Command-line entry point: fig1a, fig1b, fig1c (sweep tables),
optimize-lambda, state-info and validate. Exit codes: 0 success, 2 config
error, 3 convergence failure. Failures and warnings print one
machine-readable JSON record each to stderr."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import analytics, readout, sweep
from .fock import (
    HilbertSpec,
    NumericalError,
    TruncationError,
    squeezed_vacuum,
    x_sectors,
)
from .states import (
    converged_pair,
    db_to_delta,
    delta_db,
    export_state_csv,
    export_state_json,
    x_populations,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _config_from_args(args) -> sweep.SweepConfig:
    cfg = sweep.parse_config_file(args.config) if args.config else sweep.SweepConfig()
    names = {f.name for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{k: v for k, v in vars(args).items()
                                       if k in names and v is not None})


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    sys.stdout.write(sweep.emit(getattr(sweep, args.runner)(cfg), cfg))
    return EXIT_OK


def cmd_optimize_lambda(args) -> int:
    delta = db_to_delta(args.delta_db)
    lam = analytics.optimal_lambda(delta)
    result = {"delta_db": args.delta_db, "delta": delta, "optimal_lambda": lam,
              "lambda_small_delta_seed": analytics.lambda_seed(delta),
              "p_err_improved": analytics.p_err_improved_formula(delta, lam),
              "p_err_simple": analytics.p_err_simple_formula(delta)}
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_state_info(args) -> int:
    delta = db_to_delta(args.delta_db)
    pair = converged_pair(delta, args.kappa, args.sigma)
    result = {"delta_db": args.delta_db, "delta": delta, "kappa": pair.kappa,
              "sigma": args.sigma, "cutoff_N": pair.spec.cutoff, "purity": pair.purity,
              "delta_eff": pair.delta_eff, "delta_eff_db": delta_db(pair.delta_eff)}
    if pair.is_pure:
        result["p_err_helstrom"] = pair.helstrom
    print(json.dumps(result, indent=2))
    if args.dump:
        export = export_state_csv if args.dump.endswith(".csv") else export_state_json
        export(pair.state0, args.dump)
    return EXIT_OK


def cmd_validate(args) -> int:
    """Run a quick in-process invariant suite and print one line each."""
    checks = []
    delta = 0.3162
    pair = converged_pair(delta)
    lam = analytics.optimal_lambda(delta)
    # K0†K0 + K1†K1 = I on each parity: K0 keeps parity p with block A[p],
    # K1 = i M1 takes it to 1 - p with block B[p]. It holds on the whole
    # truncated space, since C and S are functions of one X and cos λP and
    # sin λP of one P. On the X sectors the identity of parity p is B_pᵀB_p,
    # B = (Y, Z): an odd dim's null sector lies outside parity 1, where it
    # is 0.
    a, b = readout.sector_kraus(pair.spec, lam)
    checks.append(("Kraus completeness", all(
        np.max(np.abs(a[p].T @ a[p] + b[p].T @ b[p] - basis.T @ basis)) < 1e-12
        for p, basis in enumerate(x_sectors(pair.spec)[:3:2]))))
    small = HilbertSpec(80)
    # Σ w² over the populations is even in w and Σ w odd (`x_populations`).
    sym, anti = x_populations(small, squeezed_vacuum(small, 0.5))
    s = x_sectors(small)[1]
    var = sym @ s**2 - (anti @ s) ** 2
    checks.append(("squeezed-vacuum X variance", abs(var - 0.125) < 1e-9))
    checks.append(("effective squeezing of the 10 dB ket",
                   abs(pair.delta_eff - delta) < 1e-9))
    # The exact enumeration's branches, at lambda = 0 and at the optimum.
    outs = [readout.simulated_p_err(pair, readout.CircuitParams(x, 1)) for x in (0.0, lam)]
    checks.append(("probability conservation", all(
        abs(sum(branch.probability for branch in tree) - 1) < 1e-10
        for out in outs for tree in (out.branches_0, out.branches_1))))
    checks.append(("Helstrom dominance",
                   all(out.p_err >= pair.helstrom - 1e-10 for out in outs)))
    # The sweeps' closed forms (R = 3 at lambda = 0, R = 1 at the optimum),
    # read off the Fock states at the pair's cutoff, against the exact
    # enumeration, which outs[1] already holds at the optimum. They differ by
    # the cutoff's truncation: 7.3e-11 and 8.9e-10 relative at N = 150.
    params = (readout.CircuitParams(0.0, 3), readout.CircuitParams(lam, 1))
    closed = [readout.readout_error(pair, prm) for prm in params]
    checks.append(("sweep closed forms within 1e-9 of the exact enumeration at 10 dB", all(
        abs(c - out.p_err) <= 1e-9 * out.p_err
        for c, out in zip(closed, (readout.simulated_p_err(pair, params[0]), outs[1])))))
    formula = analytics.p_err_improved_formula(delta, lam)
    checks.append(("formula agreement at 10 dB",
                   abs(closed[1] - formula) < max(0.1 * formula, 1e-5)))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return EXIT_OK if ok else EXIT_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    # A sweep's runner is named here and looked up in `sweep` when it runs,
    # so a wrapper installed there after the parser was built still runs.
    parser = argparse.ArgumentParser(prog="gkp-readout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fig1a", "fig1b", "fig1c"):
        p = sub.add_parser(name, help=f"emit the {name} sweep table")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--delta-db-min", dest="delta_db_min", type=float)
        p.add_argument("--delta-db-max", dest="delta_db_max", type=float)
        p.add_argument("--points", dest="delta_db_points", type=int)
        p.add_argument("--output", dest="output_path",
                       help="write the table here as well as stdout")
        p.add_argument("--format", choices=["csv", "json"])
        p.set_defaults(run=cmd_sweep, runner=f"run_{name}")
    p = sub.add_parser("optimize-lambda", help="optimal interaction strength at one squeezing")
    p.add_argument("--delta-db", dest="delta_db", type=float, required=True)
    p.set_defaults(run=cmd_optimize_lambda)
    p = sub.add_parser("state-info", help="state quality metrics at one parameter point")
    p.add_argument("--delta-db", dest="delta_db", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--kappa", type=float)
    p.add_argument("--dump", help="export the mu=0 state to this path (.csv or .json)")
    p.set_defaults(run=cmd_state_info)
    sub.add_parser("validate", help="run the invariant suite").set_defaults(run=cmd_validate)
    return parser


def _stderr_record(kind: str, record: dict) -> None:
    json.dump({kind: record}, sys.stderr)
    sys.stderr.write("\n")


def _warning_record(message, category, filename, lineno, file=None, line=None) -> None:
    # Replaces warnings.showwarning, so that a warning is one JSON line on
    # stderr like the error records.
    _stderr_record("warning", {"type": category.__name__, "message": str(message)})


# The parser of `main`, built on its first call, not at import.
_parser = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    with warnings.catch_warnings():
        warnings.showwarning = _warning_record
        try:
            return args.run(args)
        # LinAlgError and NumericalError subclass ValueError, so they are
        # caught first: a failed eigensolve or a numerical-domain failure is
        # a convergence failure, not a config error. A path that cannot be
        # read or written (OSError) is a config error.
        except (np.linalg.LinAlgError, NumericalError, TruncationError, RuntimeError) as exc:
            _stderr_record("error", {"type": "convergence", "message": str(exc)})
            return EXIT_CONVERGENCE
        except (sweep.ConfigError, ValueError, OSError) as exc:
            _stderr_record("error", {"type": "config", "message": str(exc)})
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
