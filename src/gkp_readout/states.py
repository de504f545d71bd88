"""Approximate GKP basis states, the Gaussian displacement channel, and
state quality metrics (effective squeezing, purity, Helstrom bound)."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .analytics import helstrom_formula
from .fock import (
    HilbertSpec,
    TruncationError,
    check_leakage,
    i_power_signs,
    normalize,
    squeezed_vacuum,
    x_eigenbasis,
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
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def delta_db(self) -> float:
        return delta_db(self.delta)


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


def peak_indices(mu: int, kappa: float) -> np.ndarray:
    """Integers s whose peak envelope weight clears the retention floor."""
    s_vals = [0]
    for direction in (1, -1):
        s = direction
        while True:
            c = HALF_SPACING * (2 * s + mu)
            if np.exp(-(c**2) / kappa**2) < PEAK_WEIGHT_FLOOR:
                break
            s_vals.append(s)
            s += direction
    return np.array(sorted(s_vals))


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
    # so the weighted comb is one function of P, F† comb(X) F with
    # F = diag((-i)ⁿ). The peaks sit at ±c, so comb is an even cosine sum;
    # on the even levels of the squeezed vacuum F is the sign of iⁿ.
    w, v = x_eigenbasis(spec)
    c = HALF_SPACING * (2 * peak_indices(mu, kappa) + mu)
    comb = np.exp(-(c**2) / kappa**2) @ np.cos(np.sqrt(2) * np.outer(c, w))
    even = (-1.0) ** np.arange((spec.dim + 1) // 2)[:, None] * v[0::2]
    psi = np.zeros(spec.dim)
    psi[0::2] = even @ (comb * (even.T @ squeezed_vacuum(spec, delta)[0::2]))
    psi = normalize(psi)
    psi.setflags(write=False)
    return psi


def make_state_pair(spec: HilbertSpec, delta: float, kappa: Optional[float] = None,
                    sigma: float = 0.0, strict: bool = True) -> GkpStatePair:
    """Build the (|0~>, |1~>) pair, mixed through the displacement
    channel when sigma > 0."""
    kappa = GkpSpec(0, delta, kappa, sigma).kappa
    pair = [make_pure_gkp(spec, GkpSpec(mu, delta, kappa), strict=strict) for mu in (0, 1)]
    if sigma != 0:
        pair = [gaussian_displacement_channel(spec, k, sigma) for k in pair]
    return GkpStatePair(*pair, spec, delta, kappa, float(sigma))


def auto_cutoff(delta: float, kappa: Optional[float] = None, sigma: float = 0.0,
                start: int = DEFAULT_CUTOFF) -> HilbertSpec:
    """Smallest cutoff in the doubling sequence whose GKP pair passes the
    leakage check (the channel does not repopulate high Fock levels
    appreciably for the sigmas in scope, so purity suffices on kets)."""
    n = start
    while n <= MAX_CUTOFF:
        spec = HilbertSpec(n)
        try:
            for mu in (0, 1):
                make_pure_gkp(spec, GkpSpec(mu, delta, kappa))
            return spec
        except TruncationError:
            n *= 2
    raise RuntimeError(f"no converged cutoff <= {MAX_CUTOFF} for delta={delta}")


def gaussian_displacement_channel(spec: HilbertSpec, state: np.ndarray,
                                  sigma: float) -> np.ndarray:
    """Gaussian displacement channel of strength sigma.

    ρ -> (1/πσ²) ∫ d²α e^{-|α|²/σ²} D(α) ρ D†(α).

    The isotropic Gaussian factorizes over (Re α, Im α): Re α shifts X
    (generated by P), Im α shifts P (generated by X). In the eigenbasis
    (w, V) of the generator, averaging the shifts multiplies ρ_jk by
    exp(-σ²(w_j - w_k)²/2), so each pass is a Gaussian kernel applied
    elementwise; both quadratures share the eigenvalues w.
    """
    # In real arithmetic: the channel is real-linear, so the real and
    # imaginary parts of ρ pass separately. The P pass runs in the X
    # eigenbasis on F ρ F† = i^(n-m) ∘ ρ (P = F†XF, F = diag((-i)ⁿ)), which
    # is real on the parity-diagonal part of ρ and imaginary on its even-odd
    # part. The channel commutes with parity, so the two parts pass
    # separately: each is weighted by its real factor before and after the
    # P pass and kept to its own blocks after the X pass, so a part that is
    # zero on input stays exactly zero.
    state = np.asarray(state)
    if sigma == 0:
        return state
    if state.ndim == 1 and np.iscomplexobj(state):
        state = np.outer(state, state.conj())
    if np.iscomplexobj(state):
        return (gaussian_displacement_channel(spec, state.real, sigma)
                + 1j * gaussian_displacement_channel(spec, state.imag, sigma))
    w, v = x_eigenbasis(spec)
    kernel = np.exp(-0.5 * sigma**2 * np.subtract.outer(w, w) ** 2)
    phases = _phase_parts(spec.dim)
    if state.ndim == 1:
        # A real ket needs no matrix product to reach the X eigenbasis:
        # with e and o the X-eigenbasis components of the even and of the
        # odd levels of iⁿψ (up to a phase per parity), the parity-diagonal
        # part of F ψψᵀ F† becomes e eᵀ + o oᵀ and the even-odd part
        # i(e oᵀ - o eᵀ).
        ket = i_power_signs(spec.dim) * state
        e, o = (v[p::2].T @ ket[p::2] for p in (0, 1))
        first = (np.outer(e, e) + np.outer(o, o), np.outer(e, o) - np.outer(o, e))
    else:
        first = tuple(v.T @ (signed * state) @ v for signed, _ in phases)
    out = np.zeros((spec.dim, spec.dim))
    for (signed, mask), t in zip(phases, first):
        if t.any():
            rho = signed * (v @ (kernel * t) @ v.T)
            out += mask * (v @ (kernel * (v.T @ rho @ v)) @ v.T)
    return out


@lru_cache(maxsize=4)
def _phase_parts(dim: int):
    """(signs, mask) of the real and of the imaginary part of the phase
    i^(n-m) of F ρ F†: signs on the parity-diagonal entries, then on the
    even-odd ones, each with the mask of its entries (read-only arrays)."""
    n = np.arange(dim)
    k = np.add.outer(-n, n) % 4
    parts = []
    for table in ((1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)):
        signed = np.take(table, k)
        parts.append((signed, np.abs(signed)))
        for arr in parts[-1]:
            arr.setflags(write=False)
    return tuple(parts)


def effective_squeezing(spec: HilbertSpec, state: np.ndarray) -> float:
    """Effective peak width sqrt(ln(1/|<D(i√(2π))>|²) / (2π)).

    Equals delta for the pure states; +inf when the expectation vanishes.
    """
    # D(i√(2π)) = exp(2i√π X) is diagonal on the X eigenbasis (w, V), so
    # <D> = Σⱼ (VᵀρV)ⱼⱼ e^{2i√π wⱼ}, with (VᵀρV)ⱼⱼ = |(Vᵀψ)ⱼ|² for a ket.
    w, v = x_eigenbasis(spec)
    state = np.asarray(state)
    weights = (np.abs(v.T @ state) ** 2 if state.ndim == 1
               else np.einsum("kj,kj->j", v, state @ v))
    e = abs(weights @ np.exp(2j * np.sqrt(np.pi) * w))
    if e <= 1e-300:
        return np.inf
    if e > 1.0:
        e = 1.0
    return float(np.sqrt(np.log(1.0 / e**2) / (2 * np.pi)))


def effective_squeezing_db(spec: HilbertSpec, state: np.ndarray) -> float:
    d = effective_squeezing(spec, state)
    return -np.inf if d == np.inf else delta_db(d)


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
    if state.ndim == 1:
        payload = {
            "kind": "ket",
            "dim": int(state.shape[0]),
            "amplitudes_re": state.real.tolist(),
            "amplitudes_im": state.imag.tolist(),
        }
    else:
        payload = {
            "kind": "density",
            "dim": int(state.shape[0]),
            "entries_re": state.real.tolist(),
            "entries_im": state.imag.tolist(),
        }
    with open(path, "w") as f:
        json.dump(payload, f)


def export_state_csv(state: np.ndarray, path: str) -> None:
    """CSV dump: one row per entry, row-major for density matrices."""
    state = np.asarray(state, dtype=complex)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if state.ndim == 1:
            writer.writerow(["n", "re", "im"])
            for n, a in enumerate(state):
                writer.writerow([n, repr(a.real), repr(a.imag)])
        else:
            writer.writerow(["row", "col", "re", "im"])
            for i in range(state.shape[0]):
                for j in range(state.shape[1]):
                    writer.writerow([i, j, repr(state[i, j].real), repr(state[i, j].imag)])
