"""Run one benchmark workload in this interpreter and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--perturb-ref] [--spans PATH]

`run.py` starts it with one BLAS thread and PYTHONPATH set to the
checkout's `src/`. The JSON line holds the time of each unit of work (a
whole sweep table, or a block of queries), the latency of each query,
the number of points or queries attempted and failed, peak RSS, library
versions and, with `--trace 1`, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import numpy  # noqa: E402
import scipy  # noqa: E402

import gkp_readout  # noqa: E402
from gkp_readout import analytics, cli, readout, states  # noqa: E402

import spans  # noqa: E402

# Sweep workloads: the CLI arguments and the reference table recorded
# from the seed commit (see README.md for how to re-record one).
SWEEPS = {
    "fig1a-pure": {
        "argv": ["fig1a", "--delta-db-min", "7", "--delta-db-max", "14", "--points", "8"],
        "smoke_argv": ["fig1a", "--delta-db-min", "7", "--delta-db-max", "8", "--points", "2"],
        "headline": True,
    },
    "fig1c-mixed": {
        "argv": ["fig1c", "--config", str(BENCH / "fig1c-mixed.cfg")],
        "smoke_argv": ["fig1c", "--config", str(BENCH / "smoke-fig1c-mixed.cfg")],
        "headline": False,
    },
}
QUERIES = "point-queries"
WORKLOADS = (*SWEEPS, QUERIES)

# Columns compared against the reference table. The optimizer-chosen
# lambda_used of mixed rows is left out: its minimum is flat at xatol.
KEY_COLS = ("strategy", "delta_db", "sigma", "rounds")
P_COLS = ("p_err_simulated", "p_err_formula", "p_err_homodyne_formula", "p_err_helstrom")
# p_err values are 1/2 minus O(1) terms, so below ~1e-16 they are
# rounding noise; ATOL keeps such values (e.g. Helstrom at 14 dB,
# 5.6e-17) from failing on a last-bit difference.
RTOL = 1e-9
ATOL = 1e-15

# Query stream: each block of 24 holds every (sigma slot, rounds, lambda
# choice) combination once, in seeded order, so every seed has the same
# mix; squeezing is drawn uniformly per query. 5 blocks give 120
# queries, 11 of them above p90.
SIGMA_SLOTS = (0.0, 0.0, 0.05, 0.1)
ROUNDS = (1, 3, 5)
DB_RANGE = (7.0, 11.5)
MIN_BLOCKS = 5
PROB_TOL = 1e-10


def repeat(unit, min_units: int, max_units: float, seconds: float) -> list[float]:
    """Time unit(i) at least min_units times, and again while one more is
    expected to end within `seconds` of the start."""
    start = time.perf_counter()
    times = []
    while len(times) < max_units:
        t0 = time.perf_counter()
        unit(len(times))
        times.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() - start + statistics.mean(times)
        if len(times) >= min_units and expected_end > seconds:
            break
    return times


def _close(got, want: str) -> bool:
    if got is None or got == "" or want == "":
        return got == want
    x, y = float(got), float(want)
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def point_key(row: dict) -> tuple:
    return row["delta_db"], row["sigma"]


def table_failures(text: str, ref: list[dict]) -> dict:
    """Map each grid point whose rows differ from the reference to a reason."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(ref):
        return {point_key(r): f"{len(rows)} rows, reference has {len(ref)}" for r in ref}
    bad = {}
    for row, want in zip(rows, ref):
        for col in KEY_COLS + P_COLS:
            ok = row.get(col) == want[col] if col in KEY_COLS else _close(row.get(col), want[col])
            if not ok:
                bad[point_key(want)] = f"{want['strategy']} {col}: {row.get(col)} != {want[col]}"
    return bad


def headline_failures(text: str) -> dict:
    """The paper's 10 dB values: 3.78 % simple, 1.90e-4 improved at lambda 0.0957."""
    at10 = {r["strategy"]: r for r in csv.DictReader(io.StringIO(text))
            if r["delta_db"] == "10" and r["sigma"] == "0"}
    try:
        simple = float(at10["simple_R1"]["p_err_simulated"])
        improved = float(at10["improved_optimal"]["p_err_simulated"])
        lam = float(at10["improved_optimal"]["lambda_used"])
    except (KeyError, ValueError) as exc:
        return {("10", "0"): f"10 dB headline rows missing: {exc!r}"}
    if round(100 * simple, 2) != 3.78 or abs(improved - 1.90e-4) >= 5e-7 or abs(lam - 0.0957) >= 5e-5:
        return {("10", "0"): f"10 dB headline: simple {simple}, improved {improved} at {lam}"}
    return {}


def run_sweep(name: str, args) -> dict:
    spec = SWEEPS[name]
    argv = spec["smoke_argv" if args.smoke else "argv"]
    ref_name = ("smoke-" if args.smoke else "") + name + ".csv"
    with open(BENCH / "ref" / ref_name, newline="") as f:
        ref = list(csv.DictReader(f))
    if args.perturb_ref:
        row = next(r for r in ref if r["p_err_simulated"])
        row["p_err_simulated"] = repr(float(row["p_err_simulated"]) * (1 + 1e-8))
    points = len({point_key(r) for r in ref})
    failures = []

    def unit(i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        if code != 0:
            failures.extend([f"table {i}: exit code {code}"] * points)
            return
        bad = table_failures(text, ref)
        if spec["headline"] and not args.smoke:
            bad.update(headline_failures(text))
        failures.extend(f"table {i} point {k}: {v}" for k, v in bad.items())

    times = repeat(unit, 1, 1 if args.trace else math.inf, args.seconds)
    return {"unit_s": times, "latency_s": [], "attempted": points * len(times),
            "failed": len(failures), "failures": failures}


def query_blocks(seed: int):
    """Endless seeded stream of 24-query blocks."""
    rng = random.Random(seed)
    combos = list(itertools.product(range(len(SIGMA_SLOTS)), ROUNDS, (False, True)))
    while True:
        rng.shuffle(combos)
        yield [{"delta_db": rng.uniform(*DB_RANGE), "sigma": SIGMA_SLOTS[s],
                "rounds": r, "optimal_lambda": opt} for s, r, opt in combos]


def run_query(q: dict):
    """One API query; returns (latency, list of failed invariants)."""
    t0 = time.perf_counter()
    delta = 10.0 ** (-q["delta_db"] / 20.0)
    spec = states.auto_cutoff(delta, None, q["sigma"])
    pair = states.make_state_pair(spec, delta, None, q["sigma"])
    states.effective_squeezing(spec, pair.state0)
    states.purity(pair.state0)
    lam = analytics.optimal_lambda(delta) if q["optimal_lambda"] else 0.0
    out = readout.simulated_p_err(pair, readout.CircuitParams(lam, q["rounds"]))
    hom = readout.homodyne_p_err_numeric(pair) if pair.is_pure else None
    latency = time.perf_counter() - t0

    errors = []
    for tree in (out.branches_0, out.branches_1):
        total = sum(b.probability for b in tree)
        if abs(total - 1) > PROB_TOL:
            errors.append(f"branch probabilities sum to {total!r}")
    if not 0 <= out.p_err <= 1:
        errors.append(f"p_err {out.p_err!r} outside [0, 1]")
    if pair.is_pure:
        if not 0 <= hom <= 1:
            errors.append(f"homodyne p_err {hom!r} outside [0, 1]")
        hel = states.helstrom_bound(pair.state0, pair.state1)
        if out.p_err < hel - PROB_TOL:
            errors.append(f"p_err {out.p_err!r} below Helstrom {hel!r}")
        if q["rounds"] == 1:
            # Same tolerance as `gkp-readout validate`.
            formula = analytics.p_err_improved_formula(delta, lam)
            if not abs(out.p_err - formula) < max(0.1 * formula, 1e-5):
                errors.append(f"R=1 p_err {out.p_err!r} vs closed form {formula!r}")
    return latency, errors


def run_queries(args, tracer) -> dict:
    blocks = query_blocks(args.seed)
    latencies, failures = [], []
    attempted = 0

    def unit(b):
        nonlocal attempted
        block = next(blocks)
        for j, q in enumerate(block[:1] if args.smoke else block):
            qid = b * len(block) + j
            if tracer is not None:
                tracer.point = qid
            attempted += 1
            try:
                latency, errors = run_query(q)
            except Exception:  # one failed query must not end the run
                failures.append(f"query {qid} {q}: {traceback.format_exc(limit=3)}")
                continue
            latencies.append(latency)
            if errors:
                failures.append(f"query {qid} {q}: {'; '.join(errors)}")

    n = 1 if args.smoke else MIN_BLOCKS
    times = repeat(unit, n, n if args.trace or args.smoke else math.inf, args.seconds)
    return {"unit_s": times, "latency_s": latencies, "attempted": attempted,
            "failed": len(failures), "failures": failures}


def versions() -> dict:
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
            "scipy_openblas": blas(scipy), "gkp_readout": gkp_readout.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--perturb-ref", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    package_dir = Path(gkp_readout.__file__).resolve().parent
    if package_dir != ROOT / "src" / "gkp_readout":
        print(f"gkp_readout imported from {package_dir}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        wrapped = tracer.install()
    if args.workload == QUERIES:
        out = run_queries(args, tracer)
    else:
        out = run_sweep(args.workload, args)
    out["failures"] = out["failures"][:20]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = versions()
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, out["attempted"])
        # Summed self times equal the root spans' total.
        out["covered_s"] = sum(tracer.self_times())
        out["spans"] = len(tracer.spans)
        out["wrapped"] = wrapped
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
