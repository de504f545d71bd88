"""Approximate GKP basis states, built for a column of points a cutoff at a
time (`gkp_kets`) under one search over cutoffs (`converged_pairs`), the
Gaussian displacement channel, and state quality metrics (effective
squeezing, purity, Helstrom bound). A grid point is its `GkpStatePair`,
which computes each metric of its states once."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .analytics import helstrom_formula
from .fock import (
    LEAKAGE_TOL,
    HilbertSpec,
    check_leakage,
    leakage,
    normalize,
    squeezed_vacuum,
    x_sectors,
)

# Half of the logical lattice spacing in the displacement-amplitude plane:
# peaks of |mu> sit at D(L*(2s+mu))|sq vac>, i.e. at X = sqrt(pi)*(2s+mu).
HALF_SPACING = np.sqrt(np.pi / 2)

PEAK_WEIGHT_FLOOR = 1e-12
DEFAULT_CUTOFF = 150
MAX_CUTOFF = 2400


class UnsupportedStateError(TypeError):
    """Operation defined only for pure kets was given a density matrix."""


def delta_db(delta: float) -> float:
    """Squeezing in dB: -10 log10(delta^2)."""
    return -10.0 * np.log10(delta**2)


def db_to_delta(db: float) -> float:
    return 10.0 ** (-db / 20.0)


def check_point(delta: float, kappa: Optional[float] = None, sigma: float = 0.0) -> float:
    """Check a grid point: delta in (0, 1), kappa finite and >= 1, sigma
    finite and >= 0. Returns its kappa, 1/delta for None."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    kappa = 1.0 / delta if kappa is None else kappa
    # Written so that NaN fails too; an infinite kappa would leave
    # peak_weights no finite range, and an infinite sigma would prune
    # every branch.
    if not 1 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return kappa


@dataclass(frozen=True)
class GkpStatePair:
    """One (delta, kappa, sigma) grid point at a cutoff and its two basis
    states, which it builds from the grid point on first read (`sectors`):
    kets when sigma = 0, else the X-sector blocks of their displacement
    channel's output. It takes no states, so `readout.simulated_p_err`,
    which reads only the grid point, and the readers of the Fock states
    answer for the same two states. `purity` and `delta_eff` are state0's
    (`effective_squeezing`), `helstrom` the kets' `helstrom_bound` (None
    for a mixed pair), each computed once; `state0` and `state1` assemble
    their Fock arrays on first read, and every other reader uses `sectors`."""

    spec: HilbertSpec
    delta: float
    kappa: float
    sigma: float = 0.0

    def __post_init__(self):
        check_point(self.delta, self.kappa, self.sigma)

    @cached_property
    def sectors(self) -> tuple:
        kets = _gkp_pair(self.spec, self.delta, self.kappa)
        return kets if self.sigma == 0 else tuple(
            gaussian_displacement_channel(self.spec, k, self.sigma) for k in kets)

    state0 = cached_property(lambda self: self._fock(self.sectors[0]))
    state1 = cached_property(lambda self: self._fock(self.sectors[1]))
    is_pure = property(lambda self: self.sigma == 0)
    converged = property(lambda self: max(self.leakages) < LEAKAGE_TOL)
    # A lambda reads names from the module, so this calls the function purity.
    purity = cached_property(lambda self: purity(self.sectors[0]))
    delta_eff = cached_property(lambda self: _effective_squeezing_of(self.spec,
                                                                     self.populations[0]))
    helstrom = cached_property(lambda self: helstrom_bound(*self.sectors) if self.is_pure else None)

    def _fock(self, state):
        return assemble_density(self.spec, state) if isinstance(state, dict) else state

    @cached_property
    def leakages(self) -> tuple:
        """Each state's `fock.leakage`, read on blocks as ρ_nn = b ρ_pp bᵀ with
        b a row of B_p; `converged` when both are below LEAKAGE_TOL."""
        y, _, z = x_sectors(self.spec)[:3]
        top = [(n % 2, (y, z)[n % 2][n // 2]) for n in (self.spec.dim - 2, self.spec.dim - 1)]
        return tuple(sum(float((b @ s[p, p] @ b).real) for p, b in top if (p, p) in s)
                     if isinstance(s, dict) else leakage(s) for s in self.sectors)

    @cached_property
    def populations(self) -> tuple:
        """`x_populations` of state0 and of state1, computed once per pair."""
        return tuple(x_populations(self.spec, s) for s in self.sectors)


def peak_weights(kappas) -> tuple:
    """The GKP peak combs of the envelope widths kappas (Gottesman, Kitaev &
    Preskill, 2001), as (j, W): peak j sits at X = √π j, and W[i, mu, j] is
    its weight exp(-π j²/(2 kappas[i]²)) where j ≡ mu (mod 2) and the weight
    clears PEAK_WEIGHT_FLOOR, else 0."""
    kappas = np.asarray(kappas, dtype=float)[:, None, None]
    top = int(np.sqrt(-np.log(PEAK_WEIGHT_FLOOR)) * kappas.max() / HALF_SPACING) + 1
    j = np.arange(-top, top + 1)
    weight = np.exp(-((HALF_SPACING * j) ** 2) / kappas**2) * (j % 2 == np.arange(2)[:, None])
    return j, np.where(weight >= PEAK_WEIGHT_FLOOR, weight, 0.0)


@lru_cache(maxsize=8)
def _gkp_pair(spec: HilbertSpec, delta: float, kappa: float) -> tuple:
    # The one-point case of gkp_kets: 8 points, 16 kets.
    return tuple(gkp_kets(spec, (delta,), (kappa,))[0])


def gkp_kets(spec: HilbertSpec, deltas, kappas) -> np.ndarray:
    """Read-only kets [i, mu] = |mu~> of the points (deltas[i], kappas[i]) at one
    cutoff: normalized, real, even Gaussian-enveloped combs of squeezed vacua."""
    # All peaks share the generator P: D(c) for real c is exp(-i sqrt(2) c P),
    # so the weighted comb is one function of P. The peaks sit at ±c, so
    # comb is an even cosine sum, with block Y_s diag(comb(s)) Y_sᵀ on the
    # even levels of the squeezed vacuum (`fock.x_sectors`). Peak j sits at
    # c = HALF_SPACING·j: one weight matrix (`peak_weights`), zero off each
    # ket's peaks, and one cosine table serve the column; cos is even, so
    # the rows j < 0 mirror those j > 0. Each comb sums its own peaks in
    # order, and every product is a stack of matrix-vector ones, so a ket
    # rounds as it would alone, whatever the column. A multithreaded BLAS
    # may split those products, so from N = 600 the last bits can change
    # with the thread count.
    _, s, _, y_s, _, _ = x_sectors(spec)
    j, weight = peak_weights(kappas)
    half = np.cos(np.sqrt(2) * np.outer(HALF_SPACING * j[j >= 0], s))
    table = np.concatenate((half[:0:-1], half))
    comb = np.array([[w[k] @ table[k] for w, k in zip(ws, ws > 0)] for ws in weight])
    v = (y_s.T @ squeezed_vacuum(spec, deltas)[..., 0::2, None])[..., 0]
    kets = np.zeros(comb.shape[:2] + (spec.dim,))
    kets[..., 0::2] = (y_s @ (comb * v[..., None, :])[..., None])[..., 0]
    kets = normalize(kets)
    kets.setflags(write=False)
    return kets


def make_state_pair(spec: HilbertSpec, delta: float, kappa: Optional[float] = None,
                    sigma: float = 0.0) -> GkpStatePair:
    """The (|0~>, |1~>) pair at spec, mixed through the displacement channel
    (held as its sector blocks) when sigma > 0. Raises `TruncationError`
    where it leaks."""
    pair = converged_pairs((delta,), (kappa,), (sigma,), spec.cutoff, spec.cutoff)[0][0]
    check_leakage(max(pair.leakages))
    return pair


def converged_pairs(deltas, kappas, sigmas=(0.0,), start: int = DEFAULT_CUTOFF,
                    largest: Optional[int] = None) -> list:
    """The pairs [j][i] of the points (deltas[i], kappas[i]; None is 1/delta)
    under sigmas[j], each at the first cutoff from start, doubling up to
    largest (MAX_CUTOFF), where both states pass the leakage check, else at
    the last (`converged` false). The channel runs where the kets pass."""
    # One gkp_kets call per cutoff builds the kets that any sigma still needs
    # (one point's through the cache `_gkp_pair`), and the channel runs
    # at the last cutoff whatever the kets' leakage.
    largest = MAX_CUTOFF if largest is None else largest
    if start > largest:
        raise ValueError(f"start cutoff {start} exceeds the largest tried, {largest}")
    kappas = [check_point(d, k) for d, k in zip(deltas, kappas)]
    for sigma in sigmas:
        check_point(0.5, sigma=sigma)
    pairs = [[None] * len(deltas) for _ in sigmas]
    cutoff, todo = start, range(len(deltas))
    while todo:
        spec, last = HilbertSpec(cutoff), 2 * cutoff > largest
        ds, ks = [deltas[i] for i in todo], [kappas[i] for i in todo]
        kets = gkp_kets(spec, ds, ks) if len(todo) > 1 else [_gkp_pair(spec, ds[0], ks[0])]
        for i, pure in zip(todo, kets):
            pure = _holding(GkpStatePair(spec, deltas[i], kappas[i]), tuple(pure))
            for sigma, column in zip(sigmas, pairs):
                if column[i] is None and (pure.converged or last):
                    pair = pure if sigma == 0 else _holding(
                        GkpStatePair(spec, pure.delta, pure.kappa, float(sigma)),
                        tuple(gaussian_displacement_channel(spec, k, sigma) for k in pure.sectors))
                    if pair.converged or last:
                        column[i] = pair
        todo = [i for i in todo if any(column[i] is None for column in pairs)]
        cutoff *= 2
    return pairs


def _holding(pair: GkpStatePair, sectors: tuple) -> GkpStatePair:
    # The pair with the states `converged_pairs` built for it, from a
    # column's kets: those its `sectors` would build, to the last bit under
    # one BLAS thread (`gkp_kets`).
    vars(pair)["sectors"] = sectors
    return pair


def converged_pair(delta: float, kappa: Optional[float] = None,
                   sigma: float = 0.0) -> GkpStatePair:
    """`converged_pairs` of one point and one sigma, from DEFAULT_CUTOFF.
    Raises `TruncationError` where no cutoff up to MAX_CUTOFF converges."""
    pair = converged_pairs((delta,), (kappa,), (sigma,))[0][0]
    check_leakage(max(pair.leakages))
    return pair


def auto_cutoff(delta: float, kappa: Optional[float] = None, sigma: float = 0.0) -> HilbertSpec:
    """The kets' cutoff under `converged_pair`. sigma is unused, so that a
    caller who builds the mixed pair itself builds its channel once."""
    return converged_pair(delta, kappa).spec


# The two parts of ρ that the displacement channel keeps apart, as the
# blocks (p, q) of each with their sign in the P pass.
_PARITY_PARTS = ((((0, 0), 1), ((1, 1), 1)), (((0, 1), 1), ((1, 0), -1)))


def gaussian_displacement_channel(spec: HilbertSpec, state: np.ndarray, sigma: float) -> dict:
    """Gaussian displacement channel of strength sigma,
    ρ -> (1/πσ²) ∫ d²α e^{-|α|²/σ²} D(α) ρ D†(α), of a ket or a Fock
    density matrix, as its nonzero X-sector blocks {(p, q): B_pᵀρ′_pqB_q},
    B = (Y, Z) of `fock.x_sectors`.

    Re α shifts X (generated by P), Im α shifts P (generated by X). In the
    generator's eigenbasis, eigenvalues w, averaging the shifts multiplies
    ρ_jk by g(w_j - w_k), g(x) = exp(-σ²x²/2). On the sectors of
    `fock.x_sectors` (eigenvectors [y_a; ±z_a]/√2 at ±s_a) g summed over the
    four sign pairs leaves K± = g(s_a - s_b) ± g(s_a + s_b), so A = Yᵀρ_00Y
    and B = Zᵀρ_11Z map to A' = ½(K₊∘A + K₋∘B) and B' = ½(K₋∘A + K₊∘B), and
    Yᵀρ_01Z and Zᵀρ_10Y the same way. The null mode of an odd dim (s = 0,
    z = 0) needs no case of its own: K₋ vanishes on its row and column.
    """
    # The P pass runs on the signed sectors W = (Y_s, Z_s): on parity p,
    # P's eigenbasis is W_p's times 1 (even) or i (odd). The channel commutes
    # with parity, so the parity-diagonal blocks of ρ and its even-odd
    # blocks pass apart. On the diagonal blocks the phases cancel. The
    # even-odd part enters as i(W_0ᵀρ_01W_1 - W_1ᵀρ_10W_0) and leaves with
    # -i on block (0, 1) and i on (1, 0), so in real arithmetic it takes the
    # sign +1 on (0, 1) and -1 on (1, 0), both ways. C_p then takes each
    # block to the X sectors. Each part is kept to its own blocks, so a part
    # that is zero on input stays exactly zero.
    state = np.asarray(state)
    _, _, _, y_s, z_s, c = x_sectors(spec)
    k_plus, k_minus = _channel_kernel(spec, sigma)

    def kernel(a, b):
        # A block the part lacks (None) takes no pass.
        if b is None:
            return k_plus * a, k_minus * a
        if a is None:
            return k_minus * b, k_plus * b
        return k_plus * a + k_minus * b, k_minus * a + k_plus * b

    def signed(sign, x):
        return -x if sign < 0 and x is not None else x

    # Only the blocks that are not zero enter: a GKP ket is even.
    if state.ndim == 1:
        # A ket needs no matrix product to reach the sectors: block (p, q)
        # of ψψ† there is the outer product of its two sector vectors.
        e = [(y_s, z_s)[p].T @ state[p::2] for p in (0, 1)]
        first = {(p, q): np.outer(e[p], e[q].conj()) for p, q in np.ndindex(2, 2)
                 if e[p].any() and e[q].any()}
    else:
        first = {(p, q): (y_s, z_s)[p].T @ state[p::2, q::2] @ (y_s, z_s)[q]
                 for p, q in np.ndindex(2, 2) if state[p::2, q::2].any()}
    out = {}
    for part in _PARITY_PARTS:
        if any(pq in first for pq, _ in part):
            blocks = kernel(*(signed(sign, first.get(pq)) for pq, sign in part))
            blocks = kernel(*(signed(sign, c[p] @ b @ c[q].T)
                              for ((p, q), sign), b in zip(part, blocks)))
            out.update((pq, b) for (pq, _), b in zip(part, blocks))
    return out


@lru_cache(maxsize=8)
def _channel_kernel(spec: HilbertSpec, sigma: float) -> tuple:
    """½K₊ and ½K₋ of `gaussian_displacement_channel`, per cutoff and sigma."""
    s = x_sectors(spec)[1]
    near, far = (np.exp(-0.5 * sigma**2 * op.outer(s, s) ** 2) for op in (np.subtract, np.add))
    halves = 0.5 * (near + far), 0.5 * (near - far)
    for k in halves:
        k.setflags(write=False)
    return halves


@lru_cache(maxsize=4)
def _lift_bases(spec: HilbertSpec) -> tuple:
    # B(2 - BᵀB) for B = (Y, Z) of `fock.x_sectors`: B⁻ᵀ to second order in
    # B's orthogonality defect, which is about 1e-15.
    bases = tuple(b @ (2 * np.eye(b.shape[1]) - b.T @ b) for b in x_sectors(spec)[:3:2])
    for b in bases:
        b.setflags(write=False)
    return bases


def assemble_density(spec: HilbertSpec, blocks: dict) -> np.ndarray:
    """The read-only Fock array ρ of X-sector blocks x_pq: B_pᵀρ_pqB_q = x_pq to rounding."""
    # It is lifted by `_lift_bases`, not by B: a lift by B is off by B's
    # orthogonality defect once read back on the sectors, several eps of
    # max |x|, which moves a readout branch of 1e-7 by about 1e-10 relative.
    bases = _lift_bases(spec)
    out = np.zeros((spec.dim,) * 2, dtype=np.result_type(float, *blocks.values()))
    for (p, q), x in blocks.items():
        out[p::2, q::2] = bases[p] @ x @ bases[q].T
    out.setflags(write=False)
    return out


def x_populations(spec: HilbertSpec, state) -> tuple[np.ndarray, np.ndarray]:
    """X populations of a ket or density matrix per sector of
    `fock.x_sectors`, as the pair (sym, anti): the eigenvalues ±s_a hold
    ½(sym_a ± anti_a), and the null mode of an odd dim holds sym_a. So
    Σⱼ f(wⱼ)(VᵀρV)ⱼⱼ is sym·f(s) for an even f and anti·f(s) for an odd one.
    A density matrix is given as its Fock array or its X-sector blocks.
    """
    # The populations of [y_a; ±z_a]/√2 are ½(A_aa + B_aa) ± Re E_aa, with
    # A, B and E the sector blocks (0, 0), (1, 1) and (0, 1); the null mode
    # has z = 0. Of a Fock array only these diagonals are read: that of
    # B_pᵀρ_pqB_q, B = (Y, Z), is the column sum of B_p ∘ ρ_pqB_q.
    y, _, z = x_sectors(spec)[:3]
    if isinstance(state, dict):
        diag = {pq: np.diagonal(x).real for pq, x in state.items()}
    elif np.ndim(state) == 2:
        rho = np.asarray(state)
        diag = {(p, q): ((y, z)[p] * (rho[p::2, q::2] @ (y, z)[q])).sum(axis=0).real
                for p, q in ((0, 0), (1, 1), (0, 1)) if rho[p::2, q::2].any()}
    else:
        e0, e1 = y.T @ state[0::2], z.T @ state[1::2]
        return np.abs(e0) ** 2 + np.abs(e1) ** 2, 2 * (e0 * e1.conj()).real
    zero = np.zeros((spec.dim + 1) // 2)
    return diag.get((0, 0), zero) + diag.get((1, 1), zero), 2 * diag.get((0, 1), zero)


def effective_squeezing(spec: HilbertSpec, state: np.ndarray) -> float:
    """Effective peak width sqrt(ln(1/|<D(i√(2π))>|²) / (2π)): delta for
    the pure states, +inf when the expectation vanishes."""
    return _effective_squeezing_of(spec, x_populations(spec, state))


def _effective_squeezing_of(spec: HilbertSpec, populations: tuple) -> float:
    """`effective_squeezing` of the state whose `x_populations` are given."""
    # D(i√(2π)) = exp(2i√π X) is diagonal on the X eigenbasis; cos is even
    # and sin odd, so <D> = sym·cos(2√π s) + i anti·sin(2√π s).
    theta = 2 * np.sqrt(np.pi) * x_sectors(spec)[1]
    sym, anti = populations
    e = abs(complex(sym @ np.cos(theta), anti @ np.sin(theta)))
    if e <= 1e-300:
        return np.inf
    if e > 1.0:
        e = 1.0
    return float(np.sqrt(np.log(1.0 / e**2) / (2 * np.pi)))


def purity(state) -> float:
    """Tr(ρ²), computed as Σ|ρᵢⱼ|² (equal for Hermitian ρ); 1 for kets. A
    density matrix is given as its Fock array or its X-sector blocks,
    whose sum is the same, as each B_p is orthogonal."""
    if isinstance(state, dict):
        return float(sum(np.vdot(x, x).real for x in state.values()))
    return float(np.vdot(state, state).real ** (2 if np.ndim(state) == 1 else 1))


def helstrom_bound(state0: np.ndarray, state1: np.ndarray) -> float:
    """Minimum discrimination error of two pure kets (`helstrom_formula`)."""
    state0, state1 = np.asarray(state0), np.asarray(state1)
    if state0.ndim != 1 or state1.ndim != 1:
        raise UnsupportedStateError("Helstrom bound implemented for pure kets only")
    return helstrom_formula(np.vdot(state0, state1))


def export_state_json(state: np.ndarray, path: str) -> None:
    """Dump Fock amplitudes (ket) or row-major density entries to JSON."""
    state = np.asarray(state, dtype=complex)
    kind, key = ("ket", "amplitudes") if state.ndim == 1 else ("density", "entries")
    payload = {"kind": kind, "dim": int(state.shape[0]),
               f"{key}_re": state.real.tolist(), f"{key}_im": state.imag.tolist()}
    with open(path, "w") as f:
        json.dump(payload, f)


def export_state_csv(state: np.ndarray, path: str) -> None:
    """CSV dump: one row per entry, row-major for density matrices."""
    state = np.asarray(state, dtype=complex)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "re", "im"] if state.ndim == 1 else ["row", "col", "re", "im"])
        for index, a in zip(np.ndindex(state.shape), state.ravel().tolist()):
            writer.writerow([*index, repr(a.real), repr(a.imag)])
