"""Exact simulation of the qubit-mediated readout circuits.

The simple circuit applies the conditional displacement U_x(i sqrt(pi)/2)
to (|0>_qubit ⊗ state) and measures the qubit; the improved circuit
prepends U_y(-lambda). With the qubit prepared in |0> and measured
afterwards, the circuit is a two-outcome instrument {K0, K1} on the
oscillator alone, as real blocks on the X sectors of `fock.x_sectors`
(`sector_kraus`). `simulated_p_err` enumerates every branch of a
multi-round run exactly on a pair's sector form, advancing both states'
live branches a round at a time, and returns each branch as plain data,
its outcomes and probability; `post_state` replays one branch on the
same form and lifts its state to Fock. `readout_errors` takes a
closed form where one exists: tails cached per cutoff and rounds at
lambda = 0, a stack of a cutoff's one-round ket cells at any lambda.
`error_curve` is the one-round error as a function of lambda, with its
slope and curvature, for lambda searches. The ideal homodyne readout
they are compared with is a closed-form peak sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partialmethod
from typing import NamedTuple

import numpy as np

from .fock import HilbertSpec, x_sectors
from .states import GkpStatePair, assemble_density, peak_weights

PROB_PRUNE = 1e-15
MAX_ROUNDS = 9


@dataclass(frozen=True)
class CircuitParams:
    """Interaction strength lambda (0 = simple circuit) and an odd
    number of majority-vote rounds."""

    lam: float = 0.0
    rounds: int = 1

    def __post_init__(self):
        if not isinstance(self.rounds, (int, np.integer)) or self.rounds % 2 == 0:
            raise ValueError(f"rounds must be an odd integer, got {self.rounds!r}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}")
        if not abs(self.lam) < 1:  # NaN fails too
            raise ValueError(f"|lambda| must be < 1, got {self.lam}")
        if abs(self.lam) > 0.5:
            import warnings

            warnings.warn(f"lambda = {self.lam} is far outside the small-lambda regime")


class Branch(NamedTuple):
    """One measurement-outcome history of a multi-round run: its outcome
    string and probability. `post_state` gives its post-measurement state."""

    outcomes: str
    probability: float

    @property
    def majority(self) -> int:
        return 1 if 2 * self.outcomes.count("1") > len(self.outcomes) else 0


@dataclass(frozen=True)
class ReadoutOutcome:
    """Conditional error probabilities and the branch trees behind them."""

    p_1_given_0: float
    p_0_given_1: float
    branches_0: tuple = ()
    branches_1: tuple = ()

    @property
    def p_err(self) -> float:
        return 0.5 * (self.p_1_given_0 + self.p_0_given_1)


@lru_cache(maxsize=4)
def _kraus_factors(spec: HilbertSpec):
    """The factors (G, H, ±1) of K0 and of M1 per input parity p, their
    block B_out[G diag(cos λs) ± H diag(sin λs)] W_pᵀ on the sectors of
    `fock.x_sectors`, B_out = B_p for K0 and B_{1-p} for M1. Cached per
    cutoff (read-only ⌈dim/2⌉-square arrays)."""
    # K0 = C cos(λP) - S (i sin(λP)) and M1 = S cos(λP) + C (i sin(λP)),
    # C = cos(√π X/2) and S = sin(√π X/2). C has block B_p diag(c) B_pᵀ and
    # S B_{1-p} diag(σ) B_pᵀ, so with C_p = B_pᵀ W_p, K0 and M1 share the
    # four products c C_p and σ C_p as factors. G and H vanish on the null
    # row wherever the output parity is odd, so ‖B_out y‖ = ‖y‖.
    _, s, _, _, _, c_p = x_sectors(spec)
    half = np.sqrt(np.pi) / 2 * s
    cu, su = (tuple(f(half)[:, None] * c_p[p] for p in (0, 1)) for f in (np.cos, np.sin))
    for blk in (*cu, *su):
        blk.setflags(write=False)
    return (tuple((cu[p], su[1 - p], 1 - 2 * p) for p in (0, 1)),
            tuple((su[p], cu[1 - p], 2 * p - 1) for p in (0, 1)))


def sector_kraus(spec: HilbertSpec, lam: float) -> tuple:
    """Kraus pair of U_x(i sqrt(pi)/2) · U_y(-lambda) on |0>_qubit ⊗ · as real
    X-sector blocks (`fock.x_sectors`): K̃[f][p], K0 (f = 0) or M1 (f = 1;
    K1 = i M1) from parity p to p ^ f, is (G diag(cos λs) ± H diag(sin λs)) C_pᵀ
    on `_kraus_factors`, and B_{p^f} K̃[f][p] B_pᵀ is its Fock block."""
    # In the number basis X is real symmetric and P imaginary antisymmetric,
    # so C, S, cos(λP) and i sin(λP) are real; parity flips X and P, so the
    # even functions keep parity and the odd ones flip it. An odd dim's null
    # sector lies outside parity 1: its row and column there are 0. Each
    # block is built as its transpose, which the forward rounds multiply by
    # on the right, where BLAS wants it contiguous.
    _, s, _, _, _, c_p = x_sectors(spec)
    c, sn = np.cos(lam * s), np.sin(lam * s)
    return tuple(tuple((c_p[p] @ (g * c + h * (sign * sn)).T).T
                       for p, (g, h, sign) in enumerate(op)) for op in _kraus_factors(spec))


@lru_cache(maxsize=4)
def _wrong_outcome_grams(spec: HilbertSpec):
    """(GᵀG, HᵀH, ±2HᵀG), stacked, of the wrong outcome's Kraus factors
    (G, H, ±) for input mu and parity p, indexed [mu][p]: input 0 errs on
    M1, input 1 on K0. Cached per cutoff apart from the factors, which
    fig1a needs without the curve."""
    k0, m1 = _kraus_factors(spec)
    grams = tuple(tuple(np.stack((g.T @ g, h.T @ h, 2 * sign * (h.T @ g))) for g, h, sign in op)
                  for op in (m1, k0))
    for m in (m for per_mu in grams for m in per_mu):
        m.setflags(write=False)
    return grams


def _derivative(forms: tuple, w: np.ndarray) -> tuple:
    """ErrorCurve's forms (M_cc, M_ss, M_sc) of a λ-derivative: as
    d/dλ c = -Ωs and d/dλ s = Ωc, Ω = diag(w), they become
    (ΩM_sc, -M_scΩ, (M_ss + M_ssᵀ)Ω - Ω(M_cc + M_ccᵀ))."""
    m_cc, m_ss, m_sc = forms
    wc = w[:, None]
    return wc * m_sc, -m_sc * w, (m_ss + m_ss.T) * w - wc * (m_cc + m_cc.T)


@dataclass(frozen=True)
class ErrorCurve:
    """Single-round p_err(λ) of one state pair (order 0), its slope (1)
    and its curvature (2) in λ, each as quadratic forms
    ½(cᵀ M_cc c + sᵀ M_ss s + sᵀ M_sc c) in c = cos λw and s = sin λw, w
    the s_a of `fock.x_sectors`. All take λ or an array."""

    w: np.ndarray
    forms: tuple

    def __call__(self, lam, order: int = 0):
        x = np.multiply.outer(lam, self.w)
        c, s = np.cos(x), np.sin(x)
        m_cc, m_ss, m_sc = self.forms[order]
        return 0.5 * (np.sum((c @ m_cc) * c, axis=-1) + np.sum((s @ m_ss) * s, axis=-1)
                      + np.sum((s @ m_sc) * c, axis=-1))

    slope = partialmethod(__call__, order=1)
    curvature = partialmethod(__call__, order=2)


def error_curve(pair: GkpStatePair) -> ErrorCurve:
    """The R = 1 error curve of a state pair: `simulated_p_err` at one
    round as a function of λ, O(N²) per λ after an O(N³) build.

    The error is ½ Σ_mu Σ_p Tr(K ρ_pp Kᵀ) over the wrong outcome's real
    Kraus blocks K = B_out[G diag(c) ± H diag(s)] W_pᵀ, c = cos λs and
    s = sin λs (`_kraus_factors`). As ‖B_out y‖ = ‖y‖ that is
    cᵀ(GᵀG ∘ M)c + sᵀ(HᵀH ∘ M)s ± 2 sᵀ(HᵀG ∘ M)c, on the grams of
    `_wrong_outcome_grams`, with M = W_pᵀ ρ_pp W_p: (W_pᵀψ_p)(W_pᵀψ_p)ᵀ for
    a ket, C_pᵀ A_pp C_p on X-sector blocks A. Only Re ρ_pp enters. The
    sums of products cancel down to p_err, with an absolute rounding error
    of a few 1e-16. The slope and curvature forms follow by `_derivative`.
    """
    _, w, _, y_s, z_s, c = x_sectors(pair.spec)
    grams = _wrong_outcome_grams(pair.spec)
    forms = 0.0
    for mu, state in enumerate(pair.sectors):
        for p in (0, 1):
            if not isinstance(state, dict):
                e = (y_s, z_s)[p].T @ state[p::2]
                m = np.outer(e, e.conj()).real
            elif (p, p) in state:
                m = c[p].T @ state[p, p].real @ c[p]
            else:
                continue
            forms = forms + grams[mu][p] * m
    slope = _derivative(forms, w)
    return ErrorCurve(w, (tuple(forms), slope, _derivative(slope, w)))


# The enumeration advances the live nodes of a round together, on X-sector
# blocks (`sector_kraus`) keyed by their parities: (p,) for a ket's sector
# vector B_pᵀψ_p, (p, q) for a density matrix's block B_pᵀρ_pqB_q. `pieces`
# maps each key to a stack whose row i is node i's block, zero where the
# node has none. The keys are those of the roots and their flips, which the
# Kraus pair leads to; any other key would stay zero, and is left out, so its
# products are never formed. Blocks are carried unnormalized: a node's
# squared norm (ket) or trace (density matrix) is the probability of the
# outcomes that led to it.
def _apply_kraus(ops, key: tuple, x: np.ndarray, out=None) -> np.ndarray:
    # K0 or M1, given as `ops`, on the block `key`, or on a stack of them.
    if len(key) == 1:
        return np.matmul(x, ops[key[0]].T, out=out)
    return np.matmul(ops[key[0]], x @ ops[key[1]].T, out=out)


def _roots(spec: HilbertSpec, states) -> dict:
    # Nodes 0 and 1, the pair's two states: a ket's sector vectors, or the
    # X-sector blocks a mixed pair holds.
    y, _, z = x_sectors(spec)[:3]
    held = [state if isinstance(state, dict) else {
        (p,): (y, z)[p].T @ state[p::2] for p in (0, 1) if state[p::2].any()} for state in states]
    keys = {tuple(k ^ f for k in key): x for b in held for key, x in b.items() for f in (0, 1)}
    return {key: np.array([b.get(key, np.zeros_like(x)) for b in held]) for key, x in keys.items()}


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
            _apply_kraus(ops, key, pieces[key], out=y[f])
        children[c] = y = y.reshape(2 * n, *first.shape[1:])
        if len(c) == 1:
            probs += (abs(y) ** 2).sum(axis=-1)
        elif c[0] == c[1]:
            probs += np.trace(y, axis1=1, axis2=2).real
    keep = probs > PROB_PRUNE
    if not keep.all():
        children = {c: y[keep] for c, y in children.items()}
    return children, np.concatenate((2 * hist, 2 * hist + 1))[keep], probs[keep]


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


def simulated_p_err(pair: GkpStatePair, params: CircuitParams) -> ReadoutOutcome:
    """Exact readout error probability by full branch enumeration and
    majority vote over params.rounds repetitions, both states' trees a round
    at a time on the pair's sector form. Each branch is its outcome string
    and probability; `post_state` gives a branch's state. At lambda = 0
    every round reads its probabilities off the X populations, and no
    Kraus pair is built."""
    # A ket runs every round forward; a density matrix its first ⌊R/2⌋, and
    # its later rounds read `_suffix_table`.
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
        keep = probs > PROB_PRUNE
        nodes, w, probs = nodes[keep], w[keep], probs[keep]
    hist = hist[nodes] << (rounds - forward) | w
    trees = ([], [])
    for h, prob in sorted(zip(hist.tolist(), probs.tolist())):
        trees[h >> rounds].append(Branch(format(h % (1 << rounds), f"0{rounds:d}b"), prob))
    wrong = [sum(b.probability for b in tree if b.majority != mu) for mu, tree in enumerate(trees)]
    return ReadoutOutcome(p_1_given_0=wrong[0], p_0_given_1=wrong[1],
                          branches_0=tuple(trees[0]), branches_1=tuple(trees[1]))


def post_state(pair: GkpStatePair, lam: float, mu: int, outcomes: str) -> np.ndarray:
    """The normalized state of input mu after the rounds of `outcomes` at
    lambda, as a read-only Fock ket or density matrix: the branch of
    `simulated_p_err` replayed on the pair's sector form, one outcome at a
    time. A ket takes the phase iᵒⁿᵉˢ that K1 = i M1 leaves out."""
    # Blocks are carried unnormalized, as in the enumeration, so the
    # replayed probability is a ket's squared norm or a density's trace.
    if mu not in (0, 1) or set(outcomes) - {"0", "1"}:
        raise ValueError(f"need mu in (0, 1) and outcomes of 0 and 1, got {mu}, {outcomes!r}")
    kraus = sector_kraus(pair.spec, lam)
    blocks = {key: x[mu] for key, x in _roots(pair.spec, pair.sectors).items()}
    for f in map(int, outcomes):
        blocks = {tuple(k ^ f for k in key): _apply_kraus(kraus[f], key, x)
                  for key, x in blocks.items()}
    prob = sum(np.vdot(x, x).real if len(key) == 1 else np.trace(x).real
               for key, x in blocks.items() if key[0] == key[-1])
    if not prob > 0:
        raise ValueError(f"outcomes {outcomes!r} of input {mu} have probability {prob}")
    if len(next(iter(blocks))) == 2:
        out = assemble_density(pair.spec, blocks) / prob
    else:
        # Parity p lifts by B_p, B = (Y, Z) of `fock.x_sectors`.
        phase = 1j ** outcomes.count("1") if "1" in outcomes else 1
        out = np.zeros(pair.spec.dim, dtype=np.result_type(*blocks.values(), phase))
        for (p,), x in blocks.items():
            out[p::2] = x_sectors(pair.spec)[2 * p] @ x * (phase / np.sqrt(prob))
    out.setflags(write=False)
    return out


def readout_error(pair: GkpStatePair, params: CircuitParams) -> float:
    """`readout_errors` of one cell."""
    return readout_errors([(pair, params)])[0]


def readout_errors(cells) -> list[float]:
    """`simulated_p_err(pair, params).p_err` of each (pair, params) cell by
    the cheapest exact route, in non-negative terms: at lambda = 0 a sum
    over both states' X populations (`_majority_tails`); at one round on
    kets ½ Σ_μ Σ_p ‖G(c∘e) ± H(s∘e)‖², a cutoff's cells in one stack; else
    the branch enumeration."""
    # At lambda = 0, for any input and rounds, K0 and M1 are cos(√π X/2) and
    # sin(√π X/2), so at X = ±s_a the rounds are i.i.d. with
    # P(1) = q_a = sin²(√π s_a/2), and
    # p_err = ½ Σ_a [d⁰_a P(Bin(R, q_a) > R/2) + d¹_a P(Bin(R, q_a) < R/2)],
    # d^μ the populations `sym` of state μ (`x_populations`). At one round
    # on kets, for any lambda, (G, H, ±) are the wrong outcome's factors on
    # parity p (`_kraus_factors`), e = W_pᵀψ_p, c = cos λs and s = sin λs:
    # a few products of half-size matrices, and no Kraus pair is built. They
    # are stacks of matrix-vector products, so each cell rounds as it would
    # alone.
    out, stacks = np.empty(len(cells)), {}
    for k, (pair, params) in enumerate(cells):
        if params.lam == 0:
            tails = _majority_tails(pair.spec, params.rounds)
            out[k] = 0.5 * sum(sym @ t for (sym, _), t in zip(pair.populations, tails))
        elif params.rounds == 1 and pair.is_pure:
            stacks.setdefault(pair.spec, []).append(k)
        else:
            out[k] = simulated_p_err(pair, params).p_err
    for spec, ks in stacks.items():
        _, w, _, y_s, z_s, _ = x_sectors(spec)
        kets = np.array([cells[k][0].sectors for k in ks])
        x = np.multiply.outer([cells[k][1].lam for k in ks], w)
        c, s = np.cos(x), np.sin(x)
        total = 0.0
        # Input 0 errs on M1, input 1 on K0; a parity the kets lack adds 0.
        for mu, op in enumerate(_kraus_factors(spec)[::-1]):
            for p, (g, h, sign) in enumerate(op):
                e = ((y_s, z_s)[p].T @ kets[:, mu, p::2, None])[..., 0]
                if e.any():
                    y = (g @ (c * e)[..., None] + sign * (h @ (s * e)[..., None]))[..., 0]
                    total = total + (y.conj()[..., None, :] @ y[..., None])[..., 0, 0].real
        out[ks] = 0.5 * total
    return out.tolist()


@lru_cache(maxsize=8)
def _majority_tails(spec: HilbertSpec, rounds: int) -> tuple:
    """`readout_errors`' P(Bin(R, q_a) > R/2) and P(Bin(R, q_a) < R/2), per cutoff and R."""
    # Each directly, not as 1 minus the other, so neither cancels. Both are
    # even in s, so the sector sums of `x_populations` carry them.
    half = np.sqrt(np.pi) / 2 * x_sectors(spec)[1]
    s, c = np.sin(half) ** 2, np.cos(half) ** 2
    p_ones = [math.comb(rounds, m) * s**m * c ** (rounds - m) for m in range(rounds + 1)]
    # Input 0 errs on a majority of ones, input 1 on a majority of zeros.
    wrong = (sum(p_ones[rounds // 2 + 1:]), sum(p_ones[:rounds // 2 + 1]))
    for tail in wrong:
        tail.setflags(write=False)
    return wrong


def homodyne_p_err_numeric(pair: GkpStatePair) -> float:
    """Readout error of an ideal X-quadrature measurement with
    nearest-sqrt(pi)-lattice-point binning, in closed form for the
    untruncated states of the pair's (delta, kappa, sigma):
    ψ_μ(x) = Σ_s a_s g(x - √π(2s + μ)), with a_s = exp(-π(2s + μ)²/(2κ²))
    over the peaks that `peak_weights` keeps and |g|² of variance δ²/2
    (Gottesman, Kitaev & Preskill, 2001). So |ψ_μ|², convolved with
    N(0, σ²) by the channel, is a sum over peak pairs (s, t) of Gaussians
    of one variance δ²/2 + σ², of weight a_s a_t exp(-π(s - t)²/δ²),
    centred on the lattice point √π(s + t + μ). A centred Gaussian puts
    mass q in the bins at odd offsets, so a pair errs with q when s + t is
    even and 1 - q when it is odd. Every term is positive."""
    # The bins at offsets ±j, j odd, hold erfc((2j - 1)h) - erfc((2j + 1)h)
    # between them; past erfc(27) ~ 1e-318 the terms underflow.
    h = np.sqrt(np.pi / (8 * (pair.delta**2 / 2 + pair.sigma**2)))
    q = sum(math.erfc((2 * j - 1) * h) - math.erfc((2 * j + 1) * h)
            for j in range(1, int(13.5 / h) + 2, 2))
    total = 0.0
    peaks, weights = peak_weights((pair.kappa,))
    for mu, a in enumerate(weights[0]):
        s, a = (peaks[a > 0] - mu) // 2, a[a > 0]
        w = np.outer(a, a) * np.exp(-np.pi * np.subtract.outer(s, s) ** 2 / pair.delta**2)
        odd = np.add.outer(s, s) % 2 == 1
        total += (q * w[~odd].sum() + (1 - q) * w[odd].sum()) / w.sum()
    return float(0.5 * total)
