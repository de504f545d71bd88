"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the `gkp_readout` modules from the
outside: each target is replaced, in its defining module and in every
module that bound the same object under any name, by a wrapper that
records one span per call. Spans carry name, start, end, parent span and
a point or query id. They stay in memory until the run ends.

A target that no longer exists in the package is skipped, so its metrics
read 0 instead of the run failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name). Several attributes may share
# one span name; `analytics.formula` sums the closed-form p_err formulas.
TARGETS = (
    ("fock", "eigh", "fock.eigh"),
    ("fock", "rabi_gate", "fock.rabi_gate"),
    ("fock", "squeeze", "fock.squeeze"),
    ("fock", "position_wavefunctions", "fock.position_wavefunctions"),
    ("fock", "position_density", "fock.position_density"),
    ("states", "make_pure_gkp", "states.make_pure_gkp"),
    ("states", "make_state_pair", "states.make_state_pair"),
    ("states", "gaussian_displacement_channel", "states.channel"),
    ("states", "auto_cutoff", "states.auto_cutoff"),
    ("states", "effective_squeezing", "states.effective_squeezing"),
    ("states", "purity", "states.purity"),
    ("readout", "readout_unitary", "readout.readout_unitary"),
    ("readout", "run_readout_once", "readout.run_readout_once"),
    ("readout", "simulated_p_err", "readout.simulated_p_err"),
    ("readout", "homodyne_p_err_numeric", "readout.homodyne"),
    ("analytics", "optimal_lambda", "analytics.optimal_lambda"),
    ("analytics", "p_err_homodyne_formula", "analytics.formula"),
    ("analytics", "p_err_simple_formula", "analytics.formula"),
    ("analytics", "p_err_improved_formula", "analytics.formula"),
    ("analytics", "p_err_leading_order", "analytics.formula"),
    ("sweep", "optimize_lambda_simulated", "sweep.optimize_lambda_simulated"),
    ("sweep", "run_fig1a", "sweep.run"),
    ("sweep", "run_fig1b", "sweep.run"),
    ("sweep", "run_fig1c", "sweep.run"),
    ("sweep", "emit", "sweep.emit"),
    ("cli", "main", "cli.main"),
)


def _eigh_attrs(args, result):
    return {"dim": int(args[0].shape[0])}


def _readout_attrs(args, result):
    return {"branches": len(result.branches_0) + len(result.branches_1)}


# Span attributes read from a call's arguments or result.
ATTRS = {"fock.eigh": _eigh_attrs, "readout.simulated_p_err": _readout_attrs}

# A sweep point starts where `auto_cutoff` is entered directly from a runner.
POINT_START = ("states.auto_cutoff", "sweep.run")

# Span fields, in storage order.
NAME, START, END, PARENT, POINT, ATTR = range(6)


class Tracer:
    """Collects spans; `point` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.point = -1

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if (name, parent >= 0 and self.spans[parent][NAME]) == POINT_START:
            self.point += 1
        self.spans.append([name, time.perf_counter(), None, parent, self.point, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs is not None:
                self.spans[i][ATTR] = attrs(args, result)
            return result

        return traced

    def install(self, package: str = "gkp_readout") -> list[str]:
        """Wrap every target that exists; return the bindings replaced."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        replaced = []
        for mod_name, attr, span in TARGETS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        replaced.append(f"{mod.__name__}.{binding}")
        return replaced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def ancestors(self) -> list[frozenset]:
        """Names of all enclosing spans, per span."""
        out = []
        for s in self.spans:
            p = s[PARENT]
            out.append(frozenset() if p < 0 else out[p] | {self.spans[p][NAME]})
        return out

    def dump(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent, point, attrs."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "point": s[POINT],
                                    "attrs": s[ATTR]}) + "\n")


# Per-layer metrics: (metric, kind, span name, ancestor span name).
# kind: calls | self_s | under (calls of `span` inside `ancestor`) |
# sum:<attr> (sum of a span attribute) | dim3 (sum of dim**3).
LAYER_METRICS = (
    ("fock.eigh.calls", "calls", "fock.eigh", None),
    ("fock.eigh.self_s", "self_s", "fock.eigh", None),
    ("fock.eigh.dim3_sum", "dim3", "fock.eigh", None),
    ("fock.hybrid_eigh.calls", "under", "fock.eigh", "fock.rabi_gate"),
    ("fock.rabi_gate.calls", "calls", "fock.rabi_gate", None),
    ("fock.rabi_gate.self_s", "self_s", "fock.rabi_gate", None),
    ("fock.squeeze.self_s", "self_s", "fock.squeeze", None),
    ("fock.position_wavefunctions.self_s", "self_s", "fock.position_wavefunctions", None),
    ("readout.gate_builds", "calls", "readout.readout_unitary", None),
    ("readout.readout_unitary.self_s", "self_s", "readout.readout_unitary", None),
    ("readout.simulated_p_err.calls", "calls", "readout.simulated_p_err", None),
    ("readout.simulated_p_err.self_s", "self_s", "readout.simulated_p_err", None),
    ("readout.branch_evals", "calls", "readout.run_readout_once", None),
    ("readout.branches", "sum:branches", "readout.simulated_p_err", None),
    ("readout.homodyne.calls", "calls", "readout.homodyne", None),
    ("readout.homodyne.self_s", "self_s", "readout.homodyne", None),
    ("readout.homodyne.density_evals", "under", "fock.position_density", "readout.homodyne"),
    ("states.channel.calls", "calls", "states.channel", None),
    ("states.channel.self_s", "self_s", "states.channel", None),
    ("states.channel.eigh_calls", "under", "fock.eigh", "states.channel"),
    ("states.make_pure_gkp.calls", "calls", "states.make_pure_gkp", None),
    ("states.make_pure_gkp.self_s", "self_s", "states.make_pure_gkp", None),
    ("states.auto_cutoff.self_s", "self_s", "states.auto_cutoff", None),
    ("states.cutoff_trials", "under", "states.make_pure_gkp", "states.auto_cutoff"),
    ("states.effective_squeezing.self_s", "self_s", "states.effective_squeezing", None),
    ("states.purity.calls", "calls", "states.purity", None),
    ("sweep.optimize_lambda_simulated.calls", "calls", "sweep.optimize_lambda_simulated", None),
    ("sweep.optimize_lambda_simulated.self_s", "self_s", "sweep.optimize_lambda_simulated", None),
    ("sweep.optimizer_evals", "under", "readout.simulated_p_err", "sweep.optimize_lambda_simulated"),
    ("sweep.run.self_s", "self_s", "sweep.run", None),
    ("sweep.emit.self_s", "self_s", "sweep.emit", None),
    ("analytics.optimal_lambda.calls", "calls", "analytics.optimal_lambda", None),
    ("analytics.optimal_lambda.self_s", "self_s", "analytics.optimal_lambda", None),
    ("analytics.formula.self_s", "self_s", "analytics.formula", None),
    ("cli.main.self_s", "self_s", "cli.main", None),
)


def layer_metrics(tracer: Tracer, points: int) -> dict:
    """Per-layer values over all spans; `points` is the number of grid
    points or queries the spans cover (each needs 2 kets)."""
    self_s = tracer.self_times()
    anc = tracer.ancestors()
    out = {}
    for metric, kind, span, ancestor in LAYER_METRICS:
        idx = [i for i, s in enumerate(tracer.spans) if s[NAME] == span]
        if kind == "calls":
            out[metric] = len(idx)
        elif kind == "self_s":
            out[metric] = sum(self_s[i] for i in idx)
        elif kind == "under":
            out[metric] = sum(ancestor in anc[i] for i in idx)
        elif kind == "dim3":
            out[metric] = sum(tracer.spans[i][ATTR]["dim"] ** 3 for i in idx)
        else:
            key = kind.split(":", 1)[1]
            out[metric] = sum(tracer.spans[i][ATTR][key] for i in idx)
    kets = sum(s[NAME] == "states.make_pure_gkp" for s in tracer.spans)
    out["states.kets_per_point"] = kets / (2 * points)
    return out
