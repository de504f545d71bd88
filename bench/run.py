"""Benchmark of the gkp-readout package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout. Each run starts fresh interpreters with
one BLAS thread and the checkout's `src/` on PYTHONPATH: a few that only
import `gkp_readout.cli` (set-up time), then one that runs the workload
(`worker.py`). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
it is the run record. Both, with the raw samples, are also written to
`bench/results/`. Exit code 0 means every output passed its check; a
failed check prints the result with `"correct": false` and exits 1, and a
run that cannot start exits 2 without a result. `--smoke` is the
benchmark's own test (see README.md).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("fig1a-pure", "fig1c-mixed", "point-queries")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gkp_readout.cli; "
                "print(time.perf_counter() - t)")
# Keeps a run inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150
# p90 is reported only when at least this many samples lie above it.
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The benchmark could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} timed out after {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}")
    return proc.stdout


def setup_seconds(samples: int) -> float:
    """Median time for a cold interpreter to import gkp_readout.cli."""
    return statistics.median(float(run_child(["-c", IMPORT_PROBE], 60))
                             for _ in range(samples))


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool = False, perturb_ref: bool = False) -> dict:
    argv = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(result_path(workload, seed, trace, smoke, "spans.jsonl"))]
    argv += ["--smoke"] * smoke + ["--perturb-ref"] * perturb_ref
    return json.loads(run_child(argv, WORKER_TIMEOUT_S).strip().splitlines()[-1])


def result_path(workload, seed, trace, smoke, suffix="json") -> Path:
    prefix = "smoke-" if smoke else ""
    return RESULTS / f"{prefix}{workload}-seed{seed}-trace{int(trace)}.{suffix}"


def end_to_end(setup_s: float, w: dict) -> dict:
    """Median unit time and query latency percentiles. A sweep has no
    per-query samples, so its query is one whole table; with fewer than
    TAIL_SAMPLES samples above p90, p90 falls back to the median."""
    latency = w["latency_s"] or w["unit_s"]
    p50 = statistics.median(latency)
    p90 = p50
    if len(latency) >= 2:
        q90 = statistics.quantiles(latency, n=10)[8]
        if sum(x > q90 for x in latency) >= TAIL_SAMPLES:
            p90 = q90
    return {"setup_s": setup_s, "wall_s": statistics.median(w["unit_s"]),
            "query_p50_s": p50, "query_p90_s": p90, "peak_rss_mb": w["peak_rss_mb"],
            "ok_frac": 1 - w["failed"] / w["attempted"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_bytes(name: str):
    try:
        return os.sysconf(name) or None
    except (ValueError, OSError):
        return None


def git_commit():
    """HEAD of the checkout, when it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return None


def src_sha256() -> str:
    """Hash of every source file under src/, to identify the code measured
    where the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(workload, seed, seconds, trace, w) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_bytes("SC_LEVEL3_CACHE_SIZE"),
        "versions": w["versions"],
        "thread_env": {var: child_env()[var] for var in THREAD_VARS},
        "git_commit": git_commit(), "src_sha256": src_sha256(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record with samples)."""
    spec = load_spec()
    RESULTS.mkdir(exist_ok=True)
    if trace:
        w = run_worker(workload, seed, seconds, True, smoke)
        values = w["layers"]
        metrics = spec["per_layer"]
    else:
        setup_s = setup_seconds(1 if smoke else SETUP_SAMPLES)
        w = run_worker(workload, seed, seconds, False, smoke)
        values = end_to_end(setup_s, w)
        metrics = spec["end_to_end"]
    result = {
        "correct": w["failed"] == 0, "attempted": w["attempted"], "failed": w["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    record = run_record(workload, seed, seconds, trace, w)
    record["failed_frac"] = w["failed"] / w["attempted"]
    record["failures"] = w["failures"]
    record["unit_s"] = w["unit_s"]
    record["latency_s"] = w["latency_s"]
    if trace:
        wall = statistics.median(w["unit_s"])
        record["tracing"] = {
            "wall_s": wall, "spans": w["spans"], "wrapped": w["wrapped"],
            "span_cover": w["covered_s"] / sum(w["unit_s"]),
            "overhead_s": tracing_overhead(workload, seed, smoke, wall),
        }
    with open(result_path(workload, seed, trace, smoke), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    return result, record


def tracing_overhead(workload, seed, smoke, traced_wall):
    """Traced minus untraced wall_s, when an untraced run of the same
    workload and seed has left its result here."""
    try:
        with open(result_path(workload, seed, False, smoke)) as f:
            untraced = json.load(f)["result"]["metrics"]["wall_s"]["value"]
    except (OSError, KeyError, ValueError):
        return None
    return traced_wall - untraced


def smoke() -> int:
    """Run every workload on a tiny input, traced and untraced; check that
    each metric BENCHMARK.json names is reported with its unit, that the
    outputs pass, and that a perturbed reference value fails the gate."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(workload, 1, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: outputs failed the check")
        if workload != "point-queries":
            w = run_worker(workload, 1, 0, False, smoke=True, perturb_ref=True)
            if w["failed"] == 0:
                problems.append(f"{workload}: perturbed reference passed the gate")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gkp_readout" / "__init__.py").is_file():
        print(f"no gkp_readout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
