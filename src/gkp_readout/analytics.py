"""Closed-form readout error probabilities, asymptotics, and the
optimizer for the interaction strength lambda."""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .fock import NumericalError

SQRT_PI = math.sqrt(math.pi)

# Leading-order coefficient of the improved-circuit error at optimal
# lambda: 5 pi^3 / 384 ~ 0.4036.
LEADING_ORDER_COEFF = 5 * np.pi**3 / 384


def p_err_homodyne_formula(delta: float) -> float:
    """Homodyne readout error erfc(sqrt(pi)/(2 delta))."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.erfc(SQRT_PI / (2 * delta))


def p_err_simple_formula(delta: float) -> float:
    """Simple-circuit error (1 - e^{-pi delta^2 / 4}) / 2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 0.5 * (1.0 - np.exp(-np.pi * delta**2 / 4))


def p_err_improved_formula(delta: float, lam: float) -> float:
    """Improved-circuit error, derived for |lambda| << 1 and exactly the
    simple circuit's at lambda = 0:
    (1 - e^{-pi delta^2/4} (e^{-lambda^2/delta^2} + sin(sqrt(pi) lambda))) / 2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if abs(lam) > 0.3:
        warnings.warn(f"lambda = {lam} is outside the small-lambda regime")
    bracket = np.exp(-(lam**2) / delta**2) + np.sin(SQRT_PI * lam)
    return 0.5 * (1.0 - np.exp(-np.pi * delta**2 / 4) * bracket)


def lambda_seed(delta: float) -> float:
    """Small-delta approximation sqrt(pi) delta^2 / 2 of the optimum."""
    return SQRT_PI * delta**2 / 2


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f between lo and hi, where f changes sign, by bisection to
    an interval of xtol or until the midpoint stops moving. No sign change
    is a failure of the numerics (NumericalError), not bad input."""
    lo_negative = f(lo) < 0
    if lo_negative == (f(hi) < 0):
        raise NumericalError(f"no sign change of f between {lo} and {hi}")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (f(mid) < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def first_rising_root(f, fprime, grid: np.ndarray, xtol: float = 0.0) -> Optional[float]:
    """Root of f (which takes arrays too) in the first grid interval where
    it goes from negative to non-negative, or None: Newton steps on f and
    its derivative fprime from the secant point of the interval. A step
    over xtol that would leave the shrinking bracket, or one where
    fprime <= 0, bisects instead. It stops at a step of at most xtol, or
    where no float lies inside the bracket."""
    vals = f(grid)
    rising = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if rising.size == 0:
        return None
    i = rising[0]
    lo, hi = float(grid[i]), float(grid[i + 1])
    x = lo - vals[i] * (hi - lo) / (vals[i + 1] - vals[i])
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while lo < x < hi:
        fx, slope = f(x), fprime(x)
        lo, hi = (x, hi) if fx < 0 else (lo, x)
        step = fx / slope if slope > 0 else np.inf
        if not (lo < x - step < hi or abs(step) <= xtol):
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= xtol:
            break
    return float(x)


def optimal_lambda(delta: float) -> float:
    """Root of (2 lambda/delta^2) e^{-lambda^2/delta^2} = sqrt(pi) cos(sqrt(pi) lambda),
    bisected on (0, delta/sqrt(2)) until the midpoint stops moving: the simulated
    error is read at this lambda and is not flat there, since the formula's
    optimum is not the simulated one. The bracket holds one root for every delta
    in (0, 1). The difference f of the two sides rises on it, as both terms of
    f' = (2/delta^2)(1 - 2 lambda^2/delta^2) e^{-lambda^2/delta^2} + pi sin(sqrt(pi) lambda)
    are positive while lambda < delta/sqrt(2) < sqrt(pi); f(0) = -sqrt(pi); and
    f(delta/sqrt(2)) is at least 0.0922, its least value, near delta = 0.706.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    d2 = float(delta) ** 2

    def f(lam):
        return (2 * lam / d2) * math.exp(-lam * lam / d2) - SQRT_PI * math.cos(SQRT_PI * lam)

    return _bisect(f, 0.0, math.sqrt(d2 / 2), 0.0)


def p_err_leading_order(delta: float) -> float:
    """(5 pi^3 / 384) delta^6, the optimal-lambda error to lowest order."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return LEADING_ORDER_COEFF * delta**6


def helstrom_formula(overlap: complex) -> float:
    """Minimum discrimination error (1 - sqrt(1 - |overlap|^2)) / 2, as
    |overlap|^2 / (2 (1 + sqrt(1 - |overlap|^2))), which does not cancel."""
    ov2 = abs(overlap) ** 2
    if ov2 > 1 + 1e-12:
        raise NumericalError(f"|overlap| = {abs(overlap)} exceeds 1")
    return float(ov2 / (2.0 * (1.0 + np.sqrt(max(0.0, 1.0 - ov2)))))


def homodyne_crossover_db(lo_db: float = 7.0, hi_db: float = 12.0) -> float:
    """Squeezing (dB) where the optimized improved circuit and homodyne
    formulas intersect, by bisection on their log-ratio."""
    from .states import db_to_delta

    def gap(db):
        d = db_to_delta(db)
        return np.log(p_err_improved_formula(d, optimal_lambda(d))) - np.log(
            p_err_homodyne_formula(d))

    return float(_bisect(gap, lo_db, hi_db, 1e-10))
