"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report."""

import time

import numpy as np
import pytest

from gkp_readout import analytics
from gkp_readout.fock import HilbertSpec
from gkp_readout.readout import CircuitParams, readout_error, simulated_p_err
from gkp_readout.states import (
    assemble_density,
    auto_cutoff,
    effective_squeezing,
    gaussian_displacement_channel,
    helstrom_bound,
    make_state_pair,
    purity,
)
from fock_twin import HeldStates
from hybrid_oracle import (
    displacement,
    make_quadratures,
    optimal_lambda_by_minimization,
    unitarity_defect,
)

DELTA_10DB = np.sqrt(0.1)


def report(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}  {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def pair_10db():
    return make_state_pair(HilbertSpec(150), DELTA_10DB)


def test_criterion_1_headline_reproduction(pair_10db):
    start = time.monotonic()
    simple = simulated_p_err(pair_10db, CircuitParams(0.0, 1)).p_err
    lam = analytics.optimal_lambda(DELTA_10DB)
    improved = simulated_p_err(pair_10db, CircuitParams(lam, 1)).p_err
    elapsed = time.monotonic() - start
    ok = abs(simple - 0.0378) <= 0.005 and improved <= 3e-4 and elapsed < 30
    report("criterion 1: 10 dB headline (simple 3.78%, improved <= 3e-4, < 30 s)",
           ok, f"simple={simple:.4f} improved={improved:.2e} elapsed={elapsed:.1f}s")


def test_criterion_2_formula_cross_validation():
    worst = ""
    ok = True
    for delta in (0.20, 0.25, 0.30, 0.35):
        spec = auto_cutoff(delta)
        pair = make_state_pair(spec, delta)
        for lam, formula in ((0.0, analytics.p_err_simple_formula(delta)),
                             (analytics.optimal_lambda(delta), None)):
            if formula is None:
                formula = analytics.p_err_improved_formula(delta, lam)
            sim = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
            tol = max(0.1 * formula, 1e-5)
            if abs(sim - formula) >= tol:
                ok = False
                worst = f"delta={delta} lam={lam}: sim={sim:.3e} vs {formula:.3e}"
    report("criterion 2: simulation matches closed forms (10% rel / 1e-5 abs)",
           ok, worst)


def test_criterion_3_homodyne_crossover():
    db = analytics.homodyne_crossover_db()
    report("criterion 3: improved/homodyne crossover in [8.5, 9.5] dB",
           8.5 <= db <= 9.5, f"crossover={db:.3f} dB")


def test_criterion_4_scaling_law():
    # The delta^6 law with coefficient 5 pi^3/384 describes the error at
    # the small-delta approximate optimum sqrt(pi) delta^2/2 (the same
    # approximation the coefficient is derived under); the exact
    # stationary point sits at (pi^3/192) delta^6, a factor 2/5 lower.
    deltas = np.linspace(0.05, 0.15, 12)
    logs = [np.log(analytics.p_err_improved_formula(d, analytics.lambda_seed(d)))
            for d in deltas]
    slope, intercept = np.polyfit(np.log(deltas), logs, 1)
    prefactor = np.exp(intercept)
    ok = abs(slope - 6.0) <= 0.3 and abs(prefactor / analytics.LEADING_ORDER_COEFF - 1) <= 0.25
    # exact-optimum path keeps the same power law
    logs_opt = [np.log(analytics.p_err_improved_formula(d, analytics.optimal_lambda(d)))
                for d in deltas]
    slope_opt = np.polyfit(np.log(deltas), logs_opt, 1)[0]
    ok = ok and abs(slope_opt - 6.0) <= 0.3
    report("criterion 4: delta^6 scaling with 5pi^3/384 prefactor",
           ok, f"slope={slope:.3f} prefactor={prefactor:.3f} slope(exact-opt)={slope_opt:.3f}")


def test_criterion_5_optimal_lambda():
    ok = True
    detail = []
    for d in (0.1, 0.2, 0.3, DELTA_10DB, 0.4):
        gap = abs(analytics.optimal_lambda(d) - optimal_lambda_by_minimization(d))
        ok &= gap < 1e-9
        detail.append(f"{gap:.1e}")
    seed_rel = abs(analytics.optimal_lambda(0.1) / analytics.lambda_seed(0.1) - 1)
    ok &= seed_rel < 0.02
    report("criterion 5: optimal lambda vs golden-section argmin and seed",
           ok, f"gaps={detail} seed_rel={seed_rel:.4f}")


def test_criterion_6_mixed_state_metrics(pair_10db):
    spec = HilbertSpec(150)
    rho = assemble_density(spec, gaussian_displacement_channel(spec, pair_10db.state0, 0.1))
    deff = effective_squeezing(spec, rho)
    trace = np.trace(rho).real
    purities = [purity(gaussian_displacement_channel(spec, pair_10db.state0, s))
                for s in (0.05, 0.1, 0.15)]
    ok = (abs(deff - 0.3464) < 2e-3 and abs(trace - 1) < 1e-8
          and purities[0] > purities[1] > purities[2])
    report("criterion 6: mixed-state delta_eff, trace, purity monotone",
           ok, f"deff={deff:.4f} trace={trace:.10f} purities={[f'{p:.4f}' for p in purities]}")


def test_criterion_7_property_suite():
    # The detailed property tests live in the per-module suites; this
    # re-runs the headline invariants in one place.
    from readout_once import run_readout_once

    spec = HilbertSpec(150)
    checks = {}
    x, p = make_quadratures(spec)
    comm = x @ p - p @ x - 1j * np.eye(spec.dim)
    checks["commutator"] = np.max(np.abs(comm[:145, :145])) < 1e-8
    checks["unitarity"] = unitarity_defect(displacement(spec, 2 + 1j), spec) < 1e-9
    pair = make_state_pair(spec, DELTA_10DB)
    p0, p1, _, _ = run_readout_once(spec, pair.state0, 0.05)
    checks["prob_conservation"] = abs(p0 + p1 - 1) < 1e-10
    out = simulated_p_err(pair, CircuitParams(0.0, 1))
    checks["helstrom_dominance"] = out.p_err >= helstrom_bound(pair.state0, pair.state1) - 1e-10
    # The global phase and the cutoff act on the Fock states, which
    # readout_error's closed form reads and simulated_p_err does not; the
    # rotated kets are states no pair holds.
    fock = readout_error(pair, CircuitParams(0.0, 1))
    rot = readout_error(HeldStates(spec, (np.exp(0.7j) * pair.state0, np.exp(0.7j) * pair.state1)),
                        CircuitParams(0.0, 1))
    checks["global_phase"] = abs(rot - fock) < 1e-12
    checks["lambda0_reduction"] = (
        analytics.p_err_improved_formula(0.3, 0.0) == analytics.p_err_simple_formula(0.3))
    big = make_state_pair(HilbertSpec(300), DELTA_10DB)
    checks["convergence_in_N"] = abs(readout_error(big, CircuitParams(0.0, 1)) - fock) < 1e-8
    a, direct = (assemble_density(spec, gaussian_displacement_channel(spec, pair.state0, s))
                 for s in (0.06, 0.1))
    ab = assemble_density(spec, gaussian_displacement_channel(spec, a, 0.08))
    checks["channel_semigroup"] = np.max(np.abs(ab - direct)) < 1e-6
    failed = [k for k, v in checks.items() if not v]
    report("criterion 7: property suite", not failed, f"failed={failed}")


def test_criterion_8_majority_vote(pair_10db):
    p1 = simulated_p_err(pair_10db, CircuitParams(0.0, 1)).p_err
    p3 = simulated_p_err(pair_10db, CircuitParams(0.0, 3)).p_err
    lam = analytics.optimal_lambda(DELTA_10DB)
    q1 = simulated_p_err(pair_10db, CircuitParams(lam, 1)).p_err
    q3 = simulated_p_err(pair_10db, CircuitParams(lam, 3)).p_err
    ok = p3 < p1 and q3 >= 0.9 * q1
    report("criterion 8: majority vote helps simple, not improved",
           ok, f"simple {p1:.4f}->{p3:.4f}, improved {q1:.2e}->{q3:.2e}")
