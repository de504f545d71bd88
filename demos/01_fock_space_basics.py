"""The truncated Fock space, and how to tell when its cutoff bites.

Every quantity here is read off one cached SVD of truncated X's
even-odd block per cutoff N: X's eigenbasis as half-size parity
sectors. A strongly squeezed vacuum needs many Fock levels: at
delta = 0.5 its variances are exact at N = 40, at delta = 0.2 they are
off until N nears 150. A 14 dB GKP pair shows the cutoff as population
leaking into the top Fock levels, and in the readout error that the
sweeps read off its Fock states, next to the exact error of the untruncated
states (`simulated_p_err`, which has no cutoff).

Run: python3 demos/01_fock_space_basics.py
"""

import numpy as np

from gkp_readout.analytics import optimal_lambda
from gkp_readout.fock import LEAKAGE_TOL, HilbertSpec, leakage, squeezed_vacuum, x_sectors
from gkp_readout.readout import CircuitParams, readout_error, simulated_p_err
from gkp_readout.states import auto_cutoff, converged_pairs, db_to_delta, x_populations


def variance_x(spec, ket):
    """Var X of a ket from its populations on X's sectors, eigenvalues ±s:
    Σ w² is even in w and Σ w odd, so they read sym and anti."""
    s = x_sectors(spec)[1]
    sym, anti = x_populations(spec, ket)
    return sym @ s**2 - (anti @ s) ** 2


# Truncated P = F†XF with F = diag((-i)ⁿ), so Var P of a ket ψ is Var X
# of Fψ: P shares X's eigenvalues, and its sectors are X's with signs.
print("squeezed vacuum: Var X -> delta^2/2, Var P -> 1/(2 delta^2)")
print(f"  {'N':>4} {'delta':>6} {'Var X':>10} {'exact':>10} {'Var P':>10} {'exact':>10}")
for n in (40, 80, 150):
    spec = HilbertSpec(n)
    f = np.array([1, -1j, -1, 1j])[np.arange(spec.dim) % 4]
    for delta in (0.5, 0.2):
        sv = squeezed_vacuum(spec, delta)
        print(f"  {n:4d} {delta:6.2f} {variance_x(spec, sv):10.6f} {delta**2 / 2:10.6f} "
              f"{variance_x(spec, f * sv):10.4f} {1 / (2 * delta**2):10.4f}")

# A GKP state at 14 dB spreads over hundreds of Fock levels. Too small a
# cutoff shows as leakage into the top two levels, and the readout error
# of the truncated pair (the sweeps' `readout_error`) is wrong by orders of
# magnitude. The exact error reads only the pair's (delta, kappa, sigma),
# so it is the same at every N.
delta = db_to_delta(14.0)
lam = optimal_lambda(delta)
simple, improved = CircuitParams(0.0, 1), CircuitParams(lam, 1)
print(f"\n14 dB GKP pair (delta = {delta:.4f}, optimal lambda = {lam:.5f}):")
print(f"  {'N':>5} {'leakage':>10} {'p_err simple':>13} {'p_err improved':>15}")
for n in (75, 150, 300):
    pair = converged_pairs((delta,), (None,), (0.0,), n, n)[0][0]
    lk = max(leakage(pair.state0), leakage(pair.state1))
    print(f"  {n:5d} {lk:10.2e} {readout_error(pair, simple):13.6e} "
          f"{readout_error(pair, improved):15.6e}")
print(f"  {'exact':>5} {'':>10} {simulated_p_err(pair, simple).p_err:13.6e} "
      f"{simulated_p_err(pair, improved).p_err:15.6e}")
print(f"auto_cutoff doubles N from 150 until leakage < {LEAKAGE_TOL:.0e}: "
      f"N = {auto_cutoff(delta).cutoff}")
