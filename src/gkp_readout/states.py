"""Approximate GKP basis states, the Gaussian displacement channel, and
state quality metrics (effective squeezing, purity, Helstrom bound)."""

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


@dataclass(frozen=True)
class GkpSpec:
    """Parameters of one approximate GKP basis state.

    mu: logical bit. delta: peak width. kappa: envelope width
    (defaults to 1/delta). sigma: Gaussian displacement channel
    strength, 0 for a pure state.
    """

    mu: int
    delta: float
    kappa: Optional[float] = None
    sigma: float = 0.0

    def __post_init__(self):
        if self.mu not in (0, 1):
            raise ValueError(f"mu must be 0 or 1, got {self.mu}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.kappa is None:
            object.__setattr__(self, "kappa", 1.0 / self.delta)
        # Written so that NaN fails too; an infinite kappa would leave
        # peak_indices no finite range, and an infinite sigma would prune
        # every branch.
        if not 1 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class GkpStatePair:
    """The two basis states of one (delta, kappa, sigma) point.

    Kets when sigma = 0, density matrices otherwise.
    """

    state0: np.ndarray
    state1: np.ndarray
    spec: HilbertSpec
    delta: float
    kappa: float
    sigma: float

    @property
    def is_pure(self) -> bool:
        return self.state0.ndim == 1

    @property
    def converged(self) -> bool:
        """Whether both states' truncation leakage is below LEAKAGE_TOL."""
        return all(leakage(state) < LEAKAGE_TOL for state in (self.state0, self.state1))

    @cached_property
    def populations(self) -> tuple:
        """`x_populations` of state0 and of state1, computed once per pair."""
        return tuple(x_populations(self.spec, state) for state in (self.state0, self.state1))


def peak_indices(mu: int, kappa: float) -> np.ndarray:
    """Integers s whose peak envelope weight clears the retention floor."""
    # At s = ±n, |c| > 8 kappa: a weight below exp(-64), far under the floor.
    n = int(4 * kappa / HALF_SPACING) + 2
    s = np.arange(-n, n + 1)
    c = HALF_SPACING * (2 * s + mu)
    return s[np.exp(-(c**2) / kappa**2) >= PEAK_WEIGHT_FLOOR]


def make_pure_gkp(spec: HilbertSpec, g: GkpSpec, strict: bool = True) -> np.ndarray:
    """Normalized approximate GKP ket: Gaussian-enveloped comb of
    X-squeezed vacua displaced along the position axis. It is real with
    exact zeros on odd Fock levels, and read-only (cached per point).

    strict=False skips the truncation-leakage check (callers that flag
    non-convergence instead of aborting).
    """
    if g.sigma != 0:
        raise ValueError("make_pure_gkp requires sigma = 0")
    psi = _gkp_ket(spec, g.mu, g.delta, g.kappa)
    if strict:
        check_leakage(psi)
    return psi


@lru_cache(maxsize=16)
def _gkp_ket(spec: HilbertSpec, mu: int, delta: float, kappa: float) -> np.ndarray:
    # All peaks share the generator P: D(c) for real c is exp(-i sqrt(2) c P),
    # so the weighted comb is one function of P. The peaks sit at ±c, so
    # comb is an even cosine sum, with block Y_s diag(comb(s)) Y_sᵀ on the
    # even levels of the squeezed vacuum (`fock.x_sectors`).
    _, s, _, y_s, _, _ = x_sectors(spec)
    c = HALF_SPACING * (2 * peak_indices(mu, kappa) + mu)
    comb = np.exp(-(c**2) / kappa**2) @ np.cos(np.sqrt(2) * np.outer(c, s))
    psi = np.zeros(spec.dim)
    psi[0::2] = y_s @ (comb * (y_s.T @ squeezed_vacuum(spec, delta)[0::2]))
    psi = normalize(psi)
    psi.setflags(write=False)
    return psi


def make_state_pair(spec: HilbertSpec, delta: float, kappa: Optional[float] = None,
                    sigma: float = 0.0, strict: bool = True) -> GkpStatePair:
    """Build the (|0~>, |1~>) pair, mixed through the displacement
    channel when sigma > 0. strict checks the leakage of the kets and of
    the channel's output, which can leak more than its input."""
    kappa = GkpSpec(0, delta, kappa, sigma).kappa
    pair = [make_pure_gkp(spec, GkpSpec(mu, delta, kappa), strict=strict) for mu in (0, 1)]
    if sigma != 0:
        pair = [gaussian_displacement_channel(spec, k, sigma) for k in pair]
        if strict:
            for state in pair:
                check_leakage(state)
    return GkpStatePair(*pair, spec, delta, kappa, float(sigma))


def converged_pair(delta: float, kappa: Optional[float] = None, sigma: float = 0.0,
                   start: int = DEFAULT_CUTOFF) -> GkpStatePair:
    """The pair at the first cutoff, doubling from start up to MAX_CUTOFF,
    where both states pass the leakage check, or else the last pair tried
    (`converged` false). The channel's output can leak more than the kets,
    so it is built at each cutoff where the kets pass, and at the last."""
    if start > MAX_CUTOFF:
        raise ValueError(f"start cutoff {start} exceeds the largest tried, {MAX_CUTOFF}")
    spec = HilbertSpec(start)
    while True:
        last = 2 * spec.cutoff > MAX_CUTOFF
        pair = make_state_pair(spec, delta, kappa, strict=False)
        if sigma != 0 and (pair.converged or last):
            pair = make_state_pair(spec, delta, kappa, sigma, strict=False)
        if pair.converged or last:
            return pair
        spec = HilbertSpec(2 * spec.cutoff)


def auto_cutoff(delta: float, kappa: Optional[float] = None, sigma: float = 0.0,
                start: int = DEFAULT_CUTOFF) -> HilbertSpec:
    """The kets' cutoff under `converged_pair`. sigma is unused, so that a
    caller who builds the mixed pair itself builds its channel once."""
    pair = converged_pair(delta, kappa, start=start)
    if not pair.converged:
        raise RuntimeError(f"no converged cutoff <= {MAX_CUTOFF} for delta={delta}")
    return pair.spec


# The two parts of ρ that the displacement channel keeps apart, as the
# blocks (p, q) of each with their sign in the P pass.
_PARITY_PARTS = ((((0, 0), 1), ((1, 1), 1)), (((0, 1), 1), ((1, 0), -1)))


def gaussian_displacement_channel(spec: HilbertSpec, state: np.ndarray,
                                  sigma: float) -> np.ndarray:
    """Gaussian displacement channel of strength sigma,
    ρ -> (1/πσ²) ∫ d²α e^{-|α|²/σ²} D(α) ρ D†(α).

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
    if sigma == 0:
        return state
    y, s, z, y_s, z_s, c = x_sectors(spec)
    near, far = (np.exp(-0.5 * sigma**2 * op.outer(s, s) ** 2) for op in (np.subtract, np.add))
    k_plus, k_minus = near + far, near - far

    def kernel(a, b):
        return 0.5 * (k_plus * a + k_minus * b), 0.5 * (k_minus * a + k_plus * b)

    if state.ndim == 1:
        # A ket needs no matrix product to reach the sectors: block (p, q)
        # of ψψ† there is the outer product of its two sector vectors.
        e = [(y_s, z_s)[p].T @ state[p::2] for p in (0, 1)]
        first = {(p, q): np.outer(e[p], e[q].conj()) for p, q in np.ndindex(2, 2)}
    else:
        first = {(p, q): (y_s, z_s)[p].T @ state[p::2, q::2] @ (y_s, z_s)[q]
                 for p, q in np.ndindex(2, 2)}
    out = np.zeros((spec.dim,) * 2, dtype=np.result_type(state, float))
    for part in _PARITY_PARTS:
        blocks = [sign * first[pq] for pq, sign in part]
        if any(b.any() for b in blocks):
            blocks = kernel(*blocks)
            blocks = kernel(*(sign * (c[p] @ b @ c[q].T)
                              for ((p, q), sign), b in zip(part, blocks)))
            for ((p, q), _), b in zip(part, blocks):
                out[p::2, q::2] = (y, z)[p] @ b @ (y, z)[q].T
    return out


def x_populations(spec: HilbertSpec, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X populations of a ket or density matrix per sector of
    `fock.x_sectors`, as the pair (sym, anti): the eigenvalues ±s_a hold
    ½(sym_a ± anti_a), and the null mode of an odd dim holds sym_a. So
    Σⱼ f(wⱼ)(VᵀρV)ⱼⱼ is sym·f(s) for an even f and anti·f(s) for an odd one.
    """
    # With A = YᵀρY, B = ZᵀρZ and E = Yᵀρ_01Z, the populations of
    # [y_a; ±z_a]/√2 are ½(A_aa + B_aa) ± Re E_aa; the null mode has z = 0.
    y, _, z = x_sectors(spec)[:3]
    state = np.asarray(state)
    if state.ndim == 1:
        e0, e1 = y.T @ state[0::2], z.T @ state[1::2]
        return np.abs(e0) ** 2 + np.abs(e1) ** 2, 2 * (e0 * e1.conj()).real
    sym = sum(np.einsum("ka,ka->a", b, state[p::2, p::2] @ b).real for p, b in enumerate((y, z)))
    # A channel output of a GKP ket has no parity coherence: skip its block.
    coherence = state[0::2, 1::2]
    return sym, (2 * np.einsum("ka,ka->a", y, coherence @ z).real if coherence.any()
                 else np.zeros_like(sym))


def effective_squeezing(spec: HilbertSpec, state: np.ndarray) -> float:
    """Effective peak width sqrt(ln(1/|<D(i√(2π))>|²) / (2π)).

    Equals delta for the pure states; +inf when the expectation vanishes.
    """
    return effective_squeezing_of(spec, x_populations(spec, state))


def effective_squeezing_of(spec: HilbertSpec, populations: tuple) -> float:
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


def purity(state: np.ndarray) -> float:
    """Tr(ρ²), computed as Σ|ρᵢⱼ|² (equal for Hermitian ρ); 1 for kets."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return float(np.vdot(state, state).real ** 2)
    return float(np.vdot(state, state).real)


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
