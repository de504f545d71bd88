"""Exact simulation of the qubit-mediated readout circuits.

The simple circuit applies the conditional displacement U_x(i sqrt(pi)/2)
to (|0>_qubit ⊗ state) and measures the qubit; the improved circuit
prepends U_y(-lambda). With the qubit prepared in |0> and measured
afterwards, the circuit is a two-outcome instrument {K0, K1} on the
oscillator alone, as real blocks on the X sectors of `fock.x_sectors`
(`sector_kraus`). `simulated_p_err` enumerates every branch of a
multi-round run exactly, as sums of Gaussian terms in the pair's
(delta, kappa, sigma) with no Fock cutoff, on round maps cached per number
of rounds, where lambda enters only as powers of z = e^{i√πλ/2}; each
branch is plain data, its outcomes and probability. `post_state` replays
one on the Fock states the pair holds. `one_round_curve` is the exact
error at one round as a closed function of lambda, with its slope and
curvature, for lambda searches. `readout_errors` takes a closed form on
the Fock states where one exists: tails cached per cutoff and rounds at
lambda = 0, a stack of a cutoff's one-round cells, kets or X-sector
blocks, at any lambda. Ideal homodyne readout is a closed-form peak sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    # block is built as its transpose, which `post_state`'s replay
    # multiplies by on the right, where BLAS wants it contiguous.
    _, s, _, _, _, c_p = x_sectors(spec)
    c, sn = np.cos(lam * s), np.sin(lam * s)
    return tuple(tuple((c_p[p] @ (g * c + h * (sign * sn)).T).T
                       for p, (g, h, sign) in enumerate(op)) for op in _kraus_factors(spec))


# `post_state` replays a branch on X-sector blocks (`sector_kraus`) keyed
# by their parities: (p,) for a ket's sector vector B_pᵀψ_p, (p, q) for a
# density matrix's block B_pᵀρ_pqB_q. They are carried unnormalized, so the
# replayed probability is a ket's squared norm or a density's trace.
def _apply_kraus(ops, key: tuple, x: np.ndarray) -> np.ndarray:
    # K0 or M1, given as `ops`, on the block `key` (or a stack of them).
    return x @ ops[key[0]].T if len(key) == 1 else ops[key[0]] @ (x @ ops[key[1]].T)


def _root(spec: HilbertSpec, state) -> dict:
    # One state's blocks: a ket's sector vectors, or a mixed state's
    # X-sector blocks themselves.
    return state if isinstance(state, dict) else {
        (p,): x_sectors(spec)[2 * p].T @ state[p::2] for p in (0, 1) if state[p::2].any()}


@lru_cache(maxsize=(MAX_ROUNDS + 1) // 2)
def _round_maps(rounds: int) -> tuple:
    """What `_branch_tree` reads at any lambda: each round's K0 | M1 map on
    the flat index of (a, b), as indices into the entries c z^k it is made
    of, and the flat index of (m, d) and the powers k of `simulated_p_err`'s
    phase; the outcome strings' majority mask, and the strings. Cached, read-only."""
    # cos λP and i sin λP move n by -1 with ½z^l and by +1 with ±½z^{-l},
    # z = e^{i√πλ/2}; C = cos(√π X/2) and S = sin(√π X/2) move l by ±1. So
    # K0 = ½[D ⊗ (C - S)E₊ + U ⊗ (C + S)E₋] and
    # M1 = ½[D ⊗ (C + S)E₊ - U ⊗ (C - S)E₋], D and U moving n by -1 and +1,
    # E± = diag(z^{±l}) and C ∓ S = ½[(1 ± i)(l → l + 1) + (1 ∓ i)(l → l - 1)].
    # After r rounds n ≡ l ≡ r (mod 2), so h holds n = 2a - r and l = 2b - r
    # at [a, b]: outcome f's D keeps a where its U (s = 1) raises it, and b
    # rises by db. An entry's index is v(4R² + 1) + 2R² + k, with c the v-th
    # of ¼(1 - i, 1 + i, -1 + i, -1 - i), v = (f + s + db) % 2 + 2(f & s);
    # 4(4R² + 1) indexes a 0.
    (f, s, db), width, maps = np.indices((2, 2, 2)).reshape(3, -1), 4 * rounds**2 + 1, []
    for r in range(rounds):
        a, b = (x[:, None] for x in np.divmod(np.arange((r + 1) ** 2), r + 1))
        maps.append(np.full((len(a), 2 * (r + 2) ** 2), 4 * width))
        maps[-1][np.arange(len(a))[:, None], f * (r + 2) ** 2 + (a + s) * (r + 2) + b + db] = (
            ((f + s + db) % 2 + 2 * (f & s)) * width + width // 2 + (1 - 2 * s) * (2 * b - r))
    a, b = np.divmod(np.arange((rounds + 1) ** 2), rounds + 1)
    d = np.subtract.outer(b, b).T
    out = ((np.subtract.outer(a, a) + rounds) * (2 * rounds + 1) + d + rounds,
           width // 2 + 2 * d * (np.add.outer(a, a) - rounds),
           np.array([2 * w.bit_count() > rounds for w in range(1 << rounds)]))
    for x in (*maps, *out):
        x.setflags(write=False)
    return (tuple(maps), *out, tuple(format(w, f"0{rounds:d}b") for w in range(1 << rounds)))


@lru_cache(maxsize=8)
def _branch_tree(rounds: int, lam: float) -> tuple:
    """The coefficients h_w(n, l) of every outcome string w of `rounds`
    rounds at lambda, row int(w, 2), on the terms g(x - x_s - nλ) e^{il√πx/2}
    that the rounds leave of a peak g(x - x_s), and `simulated_p_err`'s
    phase: `_round_maps` at z = e^{i√πλ/2}. Cached, read-only, each its own array."""
    maps, _, powers, *_ = _round_maps(rounds)
    z = np.exp(0.5j * np.sqrt(np.pi) * lam * np.arange(-2 * rounds**2, 2 * rounds**2 + 1))
    entries = np.append(np.multiply.outer([1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j], z / 4), 0)
    h = np.ones((1, 1))
    for m in maps:
        h = (h @ entries.take(m)).reshape(2 * len(h), -1)
    for x in (h, phase := z.take(powers)):
        x.setflags(write=False)
    return h, phase


@lru_cache(maxsize=16)
def _lag_table(kappa: float) -> tuple:
    """The peak-pair lags of the combs of envelope width kappa
    (`peak_weights`): the lags L, and W[μ, L, π], the sum of a_s a_t over the
    pairs of input μ's peaks with (j_s - j_t)/2 = L and
    (j_s + j_t)/2 ≡ π (mod 2). A function of kappa alone: cached, read-only."""
    j, weights = peak_weights((kappa,))
    # One bincount over the peak pairs of both states
    key = np.subtract.outer(j, j) // 2 + j[-1] + len(j) * np.arange(2)[:, None, None]
    lags = np.bincount((2 * key + np.add.outer(j, j) // 2 % 2).ravel(),
                       (weights[0][:, :, None] * weights[0][:, None, :]).ravel(),
                       4 * len(j)).reshape(2, len(j), 2)
    for x in (j, lags):
        x.setflags(write=False)
    return j, lags


def one_round_curve(pair: GkpStatePair):
    """The exact one-round p_err of the pair's grid point (delta, kappa,
    sigma) as a function curve(lam, order) of lambda (a float or an array):
    its value (order 0), slope (1) or curvature (2). With the lag table
    W^π_L (`_lag_table`), n_μ = Σ_L e^{-πL²/δ²}(W⁰_μL + W¹_μL) and
    β_L = Σ_μ (-1)^μ (W⁰_μL - W¹_μL)/n_μ,
    p(λ) = ½ - ¼e^{-πδ²/4 - πσ²/2}[sin(√πλ) Σ_L β_L e^{-πL²/δ²}
    + Σ_L β_L e^{-φ_L(λ)}], φ_L(λ) = 2σ²λ² + (√πL + λ)²/δ²: `simulated_p_err`
    at one round, summed in closed form, and its derivatives term by term."""
    j, lags = _lag_table(pair.kappa)
    root_pi, d2, s2 = np.sqrt(np.pi), pair.delta**2, pair.sigma**2
    x = root_pi * j
    g0 = np.exp(-(x**2) / d2)
    beta = (lags[..., 0] - lags[..., 1]) / (lags.sum(axis=-1) @ g0)[:, None]
    beta = beta[0] - beta[1]
    a, damp = beta @ g0, 0.25 * np.exp(-np.pi * d2 / 4 - np.pi * s2 / 2)

    def curve(lam, order: int = 0):
        lam = np.asarray(lam, dtype=float)
        u = x + lam[..., None]
        terms = beta * np.exp(-2 * s2 * lam[..., None] ** 2 - u**2 / d2)
        # d/dλ e^{-φ} = -φ′e^{-φ} and d²/dλ² e^{-φ} = (φ′² - φ″)e^{-φ}
        dphi = 4 * s2 * lam[..., None] + 2 * u / d2
        if order == 0:
            return 0.5 - damp * (np.sin(root_pi * lam) * a + terms.sum(axis=-1))
        if order == 1:
            return -damp * (root_pi * np.cos(root_pi * lam) * a - (dphi * terms).sum(axis=-1))
        return -damp * (-np.pi * np.sin(root_pi * lam) * a
                        + ((dphi**2 - 4 * s2 - 2 / d2) * terms).sum(axis=-1))

    return curve


def simulated_p_err(pair: GkpStatePair, params: CircuitParams) -> ReadoutOutcome:
    """Exact readout error probability by full branch enumeration and
    majority vote over params.rounds repetitions, for the untruncated states
    of the pair's (delta, kappa, sigma): no Fock cutoff, and no read of the
    states the pair holds. Each branch is its outcome string and
    probability, pruned at PROB_PRUNE.

    ψ_μ(x) = Σ_s a_s g(x - √π j_s) over the peaks j_s ≡ μ (mod 2) that
    `peak_weights` keeps, |g|² of variance δ²/2. A round acts on every peak
    alike, so branch w leaves Σ_s a_s Σ_nl h_w(n, l) t_nl (`_branch_tree`),
    and p_w^μ = h_wᴴ M^μ h_w is a sum of Gaussian integrals (after Bourassa
    et al., PRX Quantum 2, 040315, 2021). In the half differences
    m = (n - n')/2, d = (l' - l)/2 and L = (j_s - j_t)/2,
    M^μ = Σ_L G_L(m)[W⁰_L + (-1)^d W¹_L] exp(-πd²(δ²/4 + σ²/2) - 2σ²λ²m²)
    exp(i√π dλ(n + n')/2), G_L(m) = exp(-(√π L + λm)²/δ²), and W^π_L the
    lag table of state μ (`_lag_table`). The
    channel's N(0, σ²) shifts of X and P enter only as the damping. M^μ is
    divided by its value at n = n', l = l', which normalizes the state."""
    rounds, lam = params.rounds, params.lam
    h, phase = _branch_tree(rounds, lam)
    _, index, _, majority, strings = _round_maps(rounds)
    j, lags = _lag_table(pair.kappa)
    # Σ_L G_L(m) W^π_L and the damping at m, d = -R…R, normalized, then
    # M^μ by a gather
    half = np.arange(-rounds, rounds + 1)
    t = np.exp(-((np.sqrt(np.pi) * j + lam * half[:, None]) / pair.delta) ** 2) @ lags
    damp = np.exp(-np.pi * (pair.delta**2 / 4 + pair.sigma**2 / 2) * half**2
                  - 2 * np.square(pair.sigma * lam * half)[:, None])
    forms = (t[..., :1] + (1 - 2 * (half % 2)) * t[..., 1:]) * damp
    forms = (forms / t[:, rounds].sum(axis=-1)[:, None, None]).reshape(2, -1).take(index, axis=1)
    probs = (h.conj() * (h @ (forms * phase).transpose(0, 2, 1))).sum(axis=-1).real
    trees = tuple(tuple(Branch(*b) for b in zip(strings, row.tolist()) if b[1] > PROB_PRUNE)
                  for row in probs)
    # Each input's kept wrong-majority branches, summed in branch order
    wrong = [sum(p[(p > PROB_PRUNE) & (majority != mu)].tolist()) for mu, p in enumerate(probs)]
    return ReadoutOutcome(*wrong, *trees)


def post_state(pair: GkpStatePair, lam: float, mu: int, outcomes: str) -> np.ndarray:
    """The normalized state of input mu after the rounds of `outcomes` at
    lambda, as a read-only Fock ket or density matrix: the branch replayed
    on the Fock states the pair holds (its sector form), one outcome at a
    time, and normalized by the probability it replays there, which is
    the branch's probability in `simulated_p_err` up to the cutoff's
    truncation. A ket takes the phase iᵒⁿᵉˢ that K1 = i M1 leaves out."""
    if mu not in (0, 1) or set(outcomes) - {"0", "1"}:
        raise ValueError(f"need mu in (0, 1) and outcomes of 0 and 1, got {mu}, {outcomes!r}")
    kraus, blocks = sector_kraus(pair.spec, lam), _root(pair.spec, pair.sectors[mu])
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
    """The p_err of each (pair, params) cell. Where a closed form exists it
    is read, in non-negative terms, off the Fock states the pair holds, so
    it carries their cutoff's truncation: at lambda = 0 a sum over both
    states' X populations (`_majority_tails`); at one round
    ½ Σ_μ Σ_p Tr(Z X_pp Zᵀ), Z = (G diag c ± H diag s) C_pᵀ the wrong
    outcome's block, on kets as ½ Σ_μ Σ_p ‖G(c∘e) ± H(s∘e)‖², e = C_pᵀx_p,
    a cutoff's ket cells in one stack. Any other cell is
    `simulated_p_err(pair, params).p_err`, exact for the grid point, whose
    states the pair holds."""
    # At lambda = 0, for any input and rounds, K0 and M1 are cos(√π X/2) and
    # sin(√π X/2), so at X = ±s_a the rounds are i.i.d. with
    # P(1) = q_a = sin²(√π s_a/2), and
    # p_err = ½ Σ_a [d⁰_a P(Bin(R, q_a) > R/2) + d¹_a P(Bin(R, q_a) < R/2)],
    # d^μ the populations `sym` of state μ (`x_populations`). At one round,
    # for any lambda, (G, H, ±) are the wrong outcome's factors on parity p
    # (`_kraus_factors`), c = cos λs and s = sin λs, and x_p the state's
    # X-sector vector B_pᵀψ_p (e = W_pᵀψ_p) or block X_pp = B_pᵀρ_ppB_p, of
    # which only the real part enters: a few products of half-size
    # matrices, and no Kraus pair is built. Kets are stacks of matrix-vector
    # products, so each cell rounds as it would alone under the same BLAS. A
    # multithreaded BLAS may split a product at N = 300 across threads, so
    # the last bits can change with the thread count.
    out, stacks = np.empty(len(cells)), {}
    for k, (pair, params) in enumerate(cells):
        if params.lam == 0:
            tails = _majority_tails(pair.spec, params.rounds)
            out[k] = 0.5 * sum(sym @ t for (sym, _), t in zip(pair.populations, tails))
        elif params.rounds == 1:
            stacks.setdefault((pair.spec, pair.is_pure), []).append(k)
        else:
            out[k] = simulated_p_err(pair, params).p_err
    for (spec, pure), ks in stacks.items():
        _, w, _, y_s, z_s, c_p = x_sectors(spec)
        x = np.multiply.outer([cells[k][1].lam for k in ks], w)
        c, s = np.cos(x), np.sin(x)
        total = np.zeros(len(ks))
        # Input 0 errs on M1, input 1 on K0; a parity the states lack adds 0.
        for mu, op in enumerate(_kraus_factors(spec)[::-1]):
            held = [cells[k][0].sectors[mu] for k in ks]
            for p, (g, h, sign) in enumerate(op):
                if pure:
                    e = ((y_s, z_s)[p].T @ np.array(held)[:, p::2, None])[..., 0]
                    if e.any():
                        y = (g @ (c * e)[..., None] + sign * (h @ (s * e)[..., None]))[..., 0]
                        total += (y.conj()[..., None, :] @ y[..., None])[..., 0, 0].real
                else:
                    # Blocks a cell at a time, two half-size products each
                    for i, blocks in enumerate(held):
                        if (p, p) in blocks:
                            z = (g * c[i] + sign * (h * s[i])) @ c_p[p].T
                            total[i] += ((z @ blocks[p, p].real) * z).sum()
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
    even and 1 - q when it is odd. Every term is positive. The pairs sum by
    lag L = s - t on the lag table (`_lag_table`): their (j_s + j_t)/2 is
    s + t + μ, so s + t is even where π = μ."""
    # The bins at offsets ±j, j odd, hold erfc((2j - 1)h) - erfc((2j + 1)h)
    # between them; past erfc(27) ~ 1e-318 the terms underflow.
    h = np.sqrt(np.pi / (8 * (pair.delta**2 / 2 + pair.sigma**2)))
    q = sum(math.erfc((2 * j - 1) * h) - math.erfc((2 * j + 1) * h)
            for j in range(1, int(13.5 / h) + 2, 2))
    lag, lags = _lag_table(pair.kappa)
    sums = np.exp(-np.pi * lag**2 / pair.delta**2) @ lags
    even, odd = np.diagonal(sums), np.diagonal(sums[:, ::-1])
    return float(0.5 * np.sum((q * even + (1 - q) * odd) / (even + odd)))
