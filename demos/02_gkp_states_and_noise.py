"""Build finite-energy grid states, send them through Gaussian
displacement noise, and track effective squeezing and purity.

Run: python3 demos/02_gkp_states_and_noise.py
"""

import numpy as np

from gkp_readout.fock import HilbertSpec
from gkp_readout.states import (
    delta_db,
    effective_squeezing,
    gaussian_displacement_channel,
    helstrom_bound,
    make_state_pair,
    purity,
)

spec = HilbertSpec(150)
delta = np.sqrt(0.1)  # 10 dB of squeezing
print(f"delta = {delta:.4f}  ({delta_db(delta):.1f} dB)")

pair = make_state_pair(spec, delta)
print(f"logical overlap |<0|1>| = {abs(np.vdot(pair.state0, pair.state1)):.3e}")
print(f"Helstrom bound: {helstrom_bound(pair.state0, pair.state1):.3e}")
print(f"effective squeezing of |0>: "
      f"{effective_squeezing(spec, pair.state0):.4f} (input {delta:.4f})")

# Asymmetric envelopes: kappa controls the Gaussian weight over peaks
# independently of the per-peak squeezing delta.
wide = make_state_pair(spec, delta, kappa=2.0).state0
print(f"\nkappa = 2.0 envelope: delta_eff = {effective_squeezing(spec, wide):.4f}")

# Gaussian displacement noise of strength sigma degrades the state to a
# mixture; delta_eff grows as sqrt(delta^2 + 2 sigma^2) and purity drops.
# The channel returns the mixture as its blocks on X's eigenbasis, which
# effective_squeezing and purity read directly.
print("\nnoise channel on |0>:")
print(f"  {'sigma':>6} {'delta_eff':>10} {'predicted':>10} "
      f"{'delta_eff(dB)':>13} {'purity':>8}")
for sigma in (0.0, 0.05, 0.1, 0.15):
    blocks = gaussian_displacement_channel(spec, pair.state0, sigma)
    deff = effective_squeezing(spec, blocks)
    pred = np.sqrt(delta**2 + 2 * sigma**2)
    print(f"  {sigma:6.2f} {deff:10.4f} {pred:10.4f} "
          f"{delta_db(deff):13.2f} {purity(blocks):8.4f}")
