"""One round of the readout circuit on the package's real Kraus blocks,
with both outcomes' probabilities and post-states: the single round that
`simulated_p_err`'s branch trees repeat, kept eager for the tests that
check it against the hybrid oracle and against identities.
"""

from __future__ import annotations

import numpy as np

from gkp_readout.readout import PROB_PRUNE, _apply, _join, _split, _weight, readout_kraus


def run_readout_once(spec, state, lam, kraus=None):
    """(p0, p1, post0, post1) of one circuit execution on an oscillator ket
    or density matrix, with normalized post-states, and None for a branch
    of probability at most PROB_PRUNE. Qubit outcome 0 reads as logical 0.
    `kraus` is `readout_kraus(spec, lam)`, to reuse one pair across calls.
    """
    state = np.asarray(state)
    ket, blocks = state.ndim == 1, _split(state)
    out = []
    for flip, ops in enumerate(kraus or readout_kraus(spec, lam)):
        post = _apply(ops, flip, blocks, ket)
        prob = _weight(post, ket)
        out.append((prob, _join(post, spec.dim, ket, flip, prob) if prob > PROB_PRUNE else None))
    (p0, post0), (p1, post1) = out
    return p0, p1, post0, post1
