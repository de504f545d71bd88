"""The Fock twin of `readout.simulated_p_err`: the same branch enumeration,
in the same outcome order and under the same `readout.PROB_PRUNE` rule, on
the Fock states a pair holds at its cutoff, so it carries the cutoff's
truncation. The tests check it against the qubit ⊗ oscillator oracle, the
closed forms of `readout.readout_errors` (which run on the same Fock
states: λ = 0 at any rounds, and one round on kets and on X-sector blocks)
against it, the Fock cell of fig1c's λ search against its minimum, and the
exact enumeration against it at a cutoff where it has converged.

Both states' trees advance together, a round at a time, on X-sector
blocks (`readout.sector_kraus`) keyed by their parities: (p,) for a ket's
sector vector B_pᵀψ_p, (p, q) for a density matrix's block B_pᵀρ_pqB_q.
`pieces` maps each key to a stack whose row i is node i's block, zero where
the node has none. The keys are those of the roots and their flips, which
the Kraus pair leads to. Blocks are carried unnormalized: a node's squared
norm (ket) or trace (density matrix) is the probability of the outcomes
that led to it. A ket runs every round forward; a density matrix its first
⌊R/2⌋, and its later rounds read `_suffix_table`; at lambda = 0 every round
reads `_sector_effects`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from gkp_readout import readout
from gkp_readout.fock import HilbertSpec, x_sectors
from gkp_readout.readout import Branch, ReadoutOutcome, _apply_kraus, _root, sector_kraus
from gkp_readout.states import assemble_density, x_populations


class HeldStates(NamedTuple):
    """Two states at a cutoff, kets or X-sector blocks, that no
    `GkpStatePair` holds (a pair builds its own from its grid point), with
    what the readers of a pair's Fock states read: `readout.post_state`,
    the closed forms of `readout.readout_errors`, this twin and the hybrid
    oracle. They have no grid point, so `readout.simulated_p_err`, and with
    it any cell without a closed form, has nothing to read."""

    spec: HilbertSpec
    sectors: tuple

    is_pure = property(lambda self: np.ndim(self.sectors[0]) == 1)
    populations = property(lambda self: tuple(x_populations(self.spec, s) for s in self.sectors))
    state0 = property(lambda self: self._fock(0))
    state1 = property(lambda self: self._fock(1))

    def _fock(self, mu):
        state = self.sectors[mu]
        return assemble_density(self.spec, state) if isinstance(state, dict) else state


def _forward_round(kraus, pieces: dict, hist: np.ndarray) -> tuple:
    # One round of the n live nodes, whose histories `hist` holds: one
    # batched product per (outcome, key), as K_f takes key k to k ^ f. Child
    # f·n + i is node i under K_f, and it lives if its probability exceeds
    # PROB_PRUNE. Returns the live children's pieces, histories and
    # probabilities.
    n, first = len(hist), next(iter(pieces.values()))
    children, probs = {}, np.zeros(2 * n)
    for c in pieces:
        y = np.empty((2, *first.shape), dtype=np.result_type(*pieces.values()))
        for f, ops in enumerate(kraus):
            key = tuple(k ^ f for k in c)
            y[f] = _apply_kraus(ops, key, pieces[key])
        children[c] = y = y.reshape(2 * n, *first.shape[1:])
        if len(c) == 1:
            probs += (abs(y) ** 2).sum(axis=-1)
        elif c[0] == c[1]:
            probs += np.trace(y, axis1=1, axis2=2).real
    keep = probs > readout.PROB_PRUNE
    if not keep.all():
        children = {c: y[keep] for c, y in children.items()}
    return children, np.concatenate((2 * hist, 2 * hist + 1))[keep], probs[keep]


def _roots(spec: HilbertSpec, states) -> dict:
    # Nodes 0 and 1, the pair's two states as `readout._root`'s blocks,
    # stacked under the keys of both and their flips.
    held = [_root(spec, state) for state in states]
    keys = {tuple(k ^ f for k in key): x for b in held for key, x in b.items() for f in (0, 1)}
    return {key: np.array([b.get(key, np.zeros_like(x)) for b in held]) for key, x in keys.items()}


def _suffix_table(kraus, rounds: int, pieces: dict) -> np.ndarray:
    # table[r, i] = ⟨E_w, ρ_i⟩ over the prefix nodes' density blocks: the
    # probability of node i's history followed by outcome string w of the
    # last m = rounds - ⌊rounds/2⌋ rounds, at row r = (2ʲ - 2) + int(w, 2)
    # for w of length j = 1…m. The effects E_w = K_wᵀK_w, K_w = K_{w_j}…K_{w_1}
    # on the blocks of `sector_kraus`, are read a level at a time as they are
    # built: the Grams KᵀK first, then E_{bw} = K_bᵀ E_w K_b, with E_w on the
    # parity K_b leads to. Only the level the next is built from is held.
    m = rounds - rounds // 2
    # Here K multiplies on the right, so it is made contiguous (see
    # `sector_kraus`).
    kraus = [[np.ascontiguousarray(k) for k in ops] for ops in kraus]
    nodes = {p: x.real.reshape(len(x), -1).T for (p, q), x in pieces.items() if p == q}
    table, level = np.zeros((2 ** (m + 1) - 2, len(next(iter(pieces.values()))))), None
    for j in range(m):
        # Level j + 1 follows level j, b major.
        lo, size = (2 << j) - 2, 1 << j
        held = [np.empty((2 * size, *ops.shape)) for ops in kraus[0]] if j < m - 1 else None
        for p in (0, 1):
            for b, ops in enumerate(kraus):
                e = np.matmul(ops[p].T, level[p ^ b] @ ops[p] if j else ops[p][None],
                              out=None if held is None else held[p][b * size:(b + 1) * size])
                if p in nodes:
                    table[lo + b * size:lo + (b + 1) * size] += e.reshape(size, -1) @ nodes[p]
        level = held
    return table


def _sector_effects(spec: HilbertSpec, rounds: int) -> np.ndarray:
    """The effects E_w of every outcome string of all `rounds` rounds at
    lambda = 0, in the row layout of `_suffix_table`. There K0 = cos(√π X/2)
    and M1 = sin(√π X/2) are diagonal on the sectors of `fock.x_sectors`, so
    E_w is too: row (2ʲ - 2) + int(w, 2) holds (c²)^zeros (σ²)^ones at s, and
    ⟨E_w, ρ⟩ = E_w · sym, `sym` from `x_populations`."""
    half = np.sqrt(np.pi) / 2 * x_sectors(spec)[1]
    first = np.stack((np.cos(half) ** 2, np.sin(half) ** 2))
    levels = [first]
    for _ in range(1, rounds):
        # E_{bw} = E_b E_w, b major
        levels.append((first[:, None] * levels[-1]).reshape(-1, half.size))
    return np.concatenate(levels)


def fock_p_err(pair, params) -> ReadoutOutcome:
    """`readout.simulated_p_err` on the Fock states the pair holds: every
    branch of both states' trees, a round at a time on the pair's sector
    form."""
    rounds, hist = params.rounds, np.arange(2)
    if params.lam == 0:
        forward = 0
        table = _sector_effects(pair.spec, rounds) @ np.transpose([s for s, _ in pair.populations])
    else:
        kraus = sector_kraus(pair.spec, params.lam)
        forward, pieces = rounds if pair.is_pure else rounds // 2, _roots(pair.spec, pair.sectors)
        for _ in range(forward):
            pieces, hist, probs = _forward_round(kraus, pieces, hist)
        if forward < rounds:
            table = _suffix_table(kraus, rounds, pieces)
    # The later rounds extend node i's history by suffix w, row by row of
    # the table, and the leaves are then put in the order of their histories.
    nodes, w = np.arange(len(hist)), np.zeros(len(hist), dtype=int)
    for j in range(rounds - forward):
        nodes, w = np.concatenate((nodes, nodes)), np.concatenate((2 * w, 2 * w + 1))
        probs = table[(2 << j) - 2 + w, nodes]
        keep = probs > readout.PROB_PRUNE
        nodes, w, probs = nodes[keep], w[keep], probs[keep]
    hist = hist[nodes] << (rounds - forward) | w
    trees = ([], [])
    for h, prob in sorted(zip(hist.tolist(), probs.tolist())):
        trees[h >> rounds].append(Branch(format(h % (1 << rounds), f"0{rounds:d}b"), prob))
    wrong = [sum(b.probability for b in tree if b.majority != mu) for mu, tree in enumerate(trees)]
    return ReadoutOutcome(p_1_given_0=wrong[0], p_0_given_1=wrong[1],
                          branches_0=tuple(trees[0]), branches_1=tuple(trees[1]))
