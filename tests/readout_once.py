"""One round of the readout circuit on the full Fock space, with both
outcomes' probabilities and post-states: the single round that the Fock
twin's branch trees (`fock_twin`) repeat, kept eager, on the Fock lift of
the package's X-sector Kraus pair, for the tests that check it against the
hybrid oracle and against identities.
"""

from __future__ import annotations

import numpy as np

from gkp_readout.fock import x_sectors
from gkp_readout.readout import PROB_PRUNE, sector_kraus


def fock_kraus(spec, lam):
    """K0 and K1 = i M1 as d × d arrays: `sector_kraus`'s blocks lifted to
    Fock as B_{p^f} K̃ B_pᵀ, B = (Y, Z) of `x_sectors`."""
    y, _, z = x_sectors(spec)[:3]
    ops = np.zeros((2, spec.dim, spec.dim))
    for f, blocks in enumerate(sector_kraus(spec, lam)):
        for p, k in enumerate(blocks):
            ops[f, p ^ f::2, p::2] = (y, z)[p ^ f] @ k @ (y, z)[p].T
    return ops[0], 1j * ops[1]


def run_readout_once(spec, state, lam, kraus=None):
    """(p0, p1, post0, post1) of one circuit execution on an oscillator ket
    or density matrix, with normalized post-states, and None for a branch
    of probability at most PROB_PRUNE. Qubit outcome 0 reads as logical 0.
    `kraus` is `fock_kraus(spec, lam)`, to reuse one pair across calls.
    """
    state = np.asarray(state)
    out = []
    for k in kraus or fock_kraus(spec, lam):
        if state.ndim == 1:
            post = k @ state
            prob = float(np.vdot(post, post).real)
            norm = np.sqrt(prob)
        else:
            post = k @ state @ k.conj().T
            prob = norm = float(np.trace(post).real)
        out.append((prob, post / norm if prob > PROB_PRUNE else None))
    (p0, post0), (p1, post1) = out
    return p0, p1, post0, post1

