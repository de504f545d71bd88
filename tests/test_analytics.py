import mpmath
import numpy as np
import pytest

from gkp_readout.analytics import (
    LEADING_ORDER_COEFF,
    _bisect,
    first_rising_root,
    helstrom_formula,
    homodyne_crossover_db,
    lambda_seed,
    optimal_lambda,
    p_err_homodyne_formula,
    p_err_improved_formula,
    p_err_leading_order,
    p_err_simple_formula,
)
from gkp_readout.fock import NumericalError
from hybrid_oracle import optimal_lambda_by_minimization

# Minimum of the improved-circuit expression at the exact stationary
# point; the quoted leading-order coefficient (5 pi^3/384) instead
# corresponds to evaluating at the approximate optimum sqrt(pi) delta^2/2.
EXACT_OPTIMUM_COEFF = np.pi**3 / 192


def test_homodyne_formula_values():
    # Oracles: a 50-digit erfc, to 2 ulp; asymptotic tail
    # erfc(z) ~ e^{-z^2}/(z sqrt(pi))
    d = 0.3162
    val = p_err_homodyne_formula(d)
    assert abs(val - 7.37e-5) < 5e-7
    z = np.sqrt(np.pi) / (2 * d)
    asym = np.exp(-(z**2)) / (z * np.sqrt(np.pi))
    assert abs(val - asym) / val < 0.1
    with mpmath.workdps(50):
        ref = float(mpmath.erfc(mpmath.mpf(float(z))))
    assert abs(val - ref) <= 2 * np.spacing(ref)


def test_homodyne_formula_monotone_and_raw_overflow():
    assert p_err_homodyne_formula(0.2) < p_err_homodyne_formula(0.3) < p_err_homodyne_formula(0.4)
    # Formula exceeds its validity range at large delta: the raw value is
    # returned, not capped
    raw = p_err_homodyne_formula(100.0)
    assert 0.98 < raw < 1.0


def test_simple_formula_values():
    assert abs(p_err_simple_formula(np.sqrt(0.1)) - 0.03777) < 5e-6
    # direct evaluation at delta = 0.2; the pi/8 delta^2 expansion is
    # ~1.6% high here and tightens as delta shrinks
    val = p_err_simple_formula(0.2)
    assert abs(val - 0.0154637) < 1e-6
    assert abs(val - np.pi / 8 * 0.04) / val < 0.02
    small = p_err_simple_formula(0.05)
    assert abs(small - np.pi / 8 * 0.0025) / small < 0.01
    assert p_err_simple_formula(1e-8) < 1e-16


def test_improved_reduces_to_simple_at_lambda_zero():
    for d in (0.1, 0.3, 0.45):
        assert p_err_improved_formula(d, 0.0) == p_err_simple_formula(d)


def test_improved_sign_structure():
    d = np.sqrt(0.1)
    lam = optimal_lambda(d)
    assert p_err_improved_formula(d, -lam) > p_err_improved_formula(d, lam)


def test_improved_minimum_value_10db():
    d = np.sqrt(0.1)
    lam = optimal_lambda(d)
    # Frozen from the minimization oracle; consistent with a readout
    # fidelity of 99.98%
    assert abs(p_err_improved_formula(d, lam) - 1.8997e-4) < 2e-8


def test_improved_warns_outside_regime():
    with pytest.warns(UserWarning):
        p_err_improved_formula(0.3, 0.5)


def test_optimal_lambda_matches_direct_minimization():
    for d in (0.05, 0.1, 0.2, np.sqrt(0.1), 0.4, 0.5):
        assert abs(optimal_lambda(d) - optimal_lambda_by_minimization(d)) < 1e-9


def test_optimal_lambda_stationarity():
    for d in (0.1, 0.3):
        lam = optimal_lambda(d)
        h = 1e-6
        deriv = (p_err_improved_formula(d, lam + h) - p_err_improved_formula(d, lam - h)) / (2 * h)
        assert abs(deriv) < 1e-6


def test_optimal_lambda_is_the_root_to_a_few_ulps():
    # Against a 40-digit root of the stationarity condition, found by
    # mpmath on the same bracket. The float condition's rounding near the
    # root sets the error: at most 4.26 ulps here, at delta = 0.3567
    deltas = np.concatenate([np.linspace(0.02, 0.98, 500), 10.0 ** (-np.arange(1, 30.5, 0.5) / 20)])
    with mpmath.workdps(40):
        for d in deltas:
            md = mpmath.mpf(float(d))
            root = mpmath.findroot(
                lambda lam: (2 * lam / md**2) * mpmath.exp(-(lam**2) / md**2)
                - mpmath.sqrt(mpmath.pi) * mpmath.cos(mpmath.sqrt(mpmath.pi) * lam),
                (mpmath.mpf(0), md / mpmath.sqrt(2)), solver="anderson")
            assert abs(optimal_lambda(d) - root) <= 5 * np.spacing(float(root))


def test_optimal_lambda_bracket_ends_are_positive():
    # f(delta/sqrt(2)) = (sqrt(2)/delta) e^{-1/2} - sqrt(pi) cos(sqrt(pi) delta/sqrt(2))
    # stays above 0.09 on (0, 1), with its minimum near delta = 0.706, so
    # (0, delta/sqrt(2)) brackets the root for every delta the domain allows
    d = np.linspace(0.0, 1.0, 2_000_001)[1:-1]
    ends = np.sqrt(2) / d * np.exp(-0.5) - np.sqrt(np.pi) * np.cos(np.sqrt(np.pi) * d / np.sqrt(2))
    assert ends.min() > 0.09
    assert abs(d[ends.argmin()] - 0.706) < 1e-3


def test_optimal_lambda_values():
    assert abs(optimal_lambda(np.sqrt(0.1)) - 0.0957338) < 1e-6
    # small-delta seed approximation within 2% at delta = 0.1
    assert abs(optimal_lambda(0.1) - lambda_seed(0.1)) / lambda_seed(0.1) < 0.02
    # ratio to the seed trends to 1
    r1 = optimal_lambda(0.05) / lambda_seed(0.05)
    r2 = optimal_lambda(0.02) / lambda_seed(0.02)
    assert abs(r2 - 1) < abs(r1 - 1)
    assert abs(r2 - 1) < 5e-4


def test_optimal_lambda_domain():
    # The stationarity root exists for every delta in (0, 1), the domain
    # check_point accepts; 5 dB and 4 dB are inside it.
    lam = optimal_lambda(0.6)
    assert 0 < lam < np.sqrt(np.pi) / 2
    assert abs(lam - optimal_lambda_by_minimization(0.6)) < 1e-6
    assert abs(optimal_lambda(10 ** -0.25) - 0.330) < 1e-3  # 5 dB
    assert abs(optimal_lambda(10 ** -0.2) - 0.400) < 1e-3  # 4 dB
    for delta in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            optimal_lambda(delta)


def test_leading_order_coefficient_and_value():
    assert abs(LEADING_ORDER_COEFF - 0.40373) < 1e-5
    assert abs(p_err_leading_order(0.1) - 4.037e-7) < 1e-9


def test_leading_order_describes_seed_lambda_not_exact_optimum():
    # At the approximate optimum the error follows (5 pi^3/384) delta^6;
    # the exact stationary point sits lower, at (pi^3/192) delta^6.
    d = 0.05
    at_seed = p_err_improved_formula(d, lambda_seed(d))
    assert abs(at_seed / p_err_leading_order(d) - 1) < 0.02
    at_opt = p_err_improved_formula(d, optimal_lambda(d))
    assert abs(at_opt / (EXACT_OPTIMUM_COEFF * d**6) - 1) < 0.02
    assert abs(at_opt / at_seed - 0.4) < 0.01


def test_optimized_always_beats_simple():
    for d in np.linspace(0.05, 0.4, 15):
        assert p_err_improved_formula(d, optimal_lambda(d)) < p_err_simple_formula(d)


def test_helstrom_formula():
    assert helstrom_formula(0.0) == 0.0
    assert abs(helstrom_formula(1.0) - 0.5) < 1e-12
    assert abs(helstrom_formula(0.1) - 2.506e-3) < 1e-6
    with pytest.raises(ValueError):
        helstrom_formula(1.1)
    # |overlap|^2 = 1e-20: the stable form keeps the bound 1e-20 / 4
    assert abs(helstrom_formula(1e-10) - 2.5e-21) < 1e-12 * 2.5e-21


def test_crossover_location():
    db = homodyne_crossover_db()
    assert 8.5 <= db <= 9.5


def test_bisection_without_sign_change_is_numerical_error():
    # The crossover lies near 9 dB, so [7, 8] dB holds no sign change: a
    # failure of the numerics, which the CLI reports as exit 3
    with pytest.raises(NumericalError, match="no sign change"):
        homodyne_crossover_db(7.0, 8.0)


def test_first_rising_root_stops_at_xtol():
    # One call on the grid, then one per Newton step from the secant point
    # of the bracket, whose ends the scan already signed. On a cubic the
    # steps converge quadratically, so a last step of at most 1e-10 leaves
    # the root within rounding; without xtol the steps go on until one is
    # zero or no float lies inside the bracket
    calls = []

    def f(x):
        calls.append(x)
        return np.asarray(x) ** 3 - 0.027

    grid = np.linspace(0.0, 1.0, 65)
    assert abs(first_rising_root(f, lambda x: 3 * x * x, grid, 1e-10) - 0.3) <= 1e-16
    assert len(calls) <= 1 + 5
    assert not {float(x) for x in calls[1:]} & {grid[19], grid[20]}
    calls.clear()
    assert abs(first_rising_root(f, lambda x: 3 * x * x, grid) - 0.3) <= 1e-16


def _counted(f):
    # f, and the list of the points it is called on (None for the scan)
    calls = []

    def g(x):
        calls.append(float(x) if np.ndim(x) == 0 else None)
        return f(x)

    return g, calls


def test_newton_root_matches_machine_precision_bisection():
    # A rising f whose own curvature takes both signs on the bracket: the
    # Newton root is the bisection root to 1e-12, in a handful of steps
    def f(x):
        return np.exp(x) - 1.5 - 0.3 * np.cos(4 * x)

    grid = np.linspace(0.0, 1.0, 9)
    f_counted, calls = _counted(f)
    root = first_rising_root(f_counted, lambda x: np.exp(x) + 1.2 * np.sin(4 * x), grid, 1e-10)
    exact = _bisect(f, 0.375, 0.5, 0.0)
    assert 0.375 < exact < 0.5
    assert abs(root - exact) <= 1e-12
    assert len(calls) <= 1 + 5


def test_newton_overshoot_falls_back_to_bisection():
    # arctan is flat away from its root, so the Newton step from the secant
    # point of [0.5, 1] lands below the bracket: the safeguard bisects
    # instead, every point evaluated stays inside, and the root is found
    def f(x):
        return np.arctan(20 * (np.asarray(x) - 0.6))

    def fprime(x):
        return 20 / (1 + 400 * (x - 0.6) ** 2)

    grid = np.linspace(0.0, 1.0, 3)
    start = 0.5 - f(0.5) * 0.5 / (f(1.0) - f(0.5))
    assert start - f(start) / fprime(start) < 0.5
    f_counted, calls = _counted(f)
    assert abs(first_rising_root(f_counted, fprime, grid, 1e-10) - 0.6) <= 1e-15
    assert all(0.5 < x < 1.0 for x in calls[1:])
    assert len(calls) <= 1 + 12


@pytest.mark.parametrize("curvature", [0.0, -1.0, np.nan])
def test_newton_without_positive_curvature_bisects(curvature):
    # Where the derivative given is not positive, every step is a bisection
    # step: from the secant point, the bracket halves to a step of 1e-10
    f_counted, calls = _counted(lambda x: np.asarray(x) ** 3 - 0.027)
    grid = np.linspace(0.0, 1.0, 5)
    root = first_rising_root(f_counted, lambda x: curvature, grid, 1e-10)
    assert abs(root - 0.3) <= 2e-10
    assert 1 + 25 <= len(calls) <= 1 + 32


def test_first_rising_root_without_rising_change_is_none():
    grid = np.linspace(0.0, 1.0, 11)
    for f in (lambda x: np.asarray(x) + 1.0, lambda x: 0.55 - np.asarray(x)):
        assert first_rising_root(f, lambda x: 1.0, grid, 1e-10) is None
