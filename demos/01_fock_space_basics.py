"""The truncated Fock space, and how to tell when its cutoff bites.

Every quantity here is read off one cached eigendecomposition of
truncated X per cutoff N. A strongly squeezed vacuum needs many Fock
levels: at delta = 0.5 its variances are exact at N = 40, at delta = 0.2
they are off until N nears 150. A 14 dB GKP pair shows the cutoff as
population leaking into the top Fock levels, and in the readout error
built on it.

Run: python3 demos/01_fock_space_basics.py
"""

from gkp_readout.analytics import optimal_lambda
from gkp_readout.fock import (
    LEAKAGE_TOL,
    HilbertSpec,
    leakage,
    signed_x_rows,
    squeezed_vacuum,
    x_eigenbasis,
)
from gkp_readout.readout import CircuitParams, simulated_p_err
from gkp_readout.states import auto_cutoff, db_to_delta, make_state_pair


def variance(w, amplitudes):
    """Variance of a quadrature with eigenvalues w, from a real ket's
    amplitudes on its eigenbasis."""
    weights = amplitudes**2
    return weights @ w**2 - (weights @ w) ** 2


# Truncated P = F†XF with F = diag((-i)ⁿ), so P shares X's eigenvalues w.
# A squeezed vacuum lives on the even levels, where P's eigenbasis is the
# signed basis U_0 = diag((-1)^(n/2)) V_0, real like X's.
print("squeezed vacuum: Var X -> delta^2/2, Var P -> 1/(2 delta^2)")
print(f"  {'N':>4} {'delta':>6} {'Var X':>10} {'exact':>10} {'Var P':>10} {'exact':>10}")
for n in (40, 80, 150):
    spec = HilbertSpec(n)
    for delta in (0.5, 0.2):
        w, v = x_eigenbasis(spec)
        sv = squeezed_vacuum(spec, delta)
        var_p = variance(w, signed_x_rows(spec)[0].T @ sv[0::2])
        print(f"  {n:4d} {delta:6.2f} {variance(w, v.T @ sv):10.6f} {delta**2 / 2:10.6f} "
              f"{var_p:10.4f} {1 / (2 * delta**2):10.4f}")

# A GKP state at 14 dB spreads over hundreds of Fock levels. Too small a
# cutoff shows as leakage into the top two levels, and the readout error
# of the truncated pair is wrong by orders of magnitude.
delta = db_to_delta(14.0)
lam = optimal_lambda(delta)
print(f"\n14 dB GKP pair (delta = {delta:.4f}, optimal lambda = {lam:.5f}):")
print(f"  {'N':>4} {'leakage':>10} {'p_err simple':>13} {'p_err improved':>15}")
for n in (75, 150, 300):
    pair = make_state_pair(HilbertSpec(n), delta, strict=False)
    lk = max(leakage(pair.state0), leakage(pair.state1))
    simple = simulated_p_err(pair, CircuitParams(0.0, 1)).p_err
    improved = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
    print(f"  {n:4d} {lk:10.2e} {simple:13.6e} {improved:15.6e}")
print(f"auto_cutoff doubles N from 150 until leakage < {LEAKAGE_TOL:.0e}: "
      f"N = {auto_cutoff(delta).cutoff}")
