"""Truncated Fock space |0..N> of a single bosonic mode. Every function
of X or P the readout needs is a pair of real half-size blocks on Fock
parity, read off one cached SVD of X's even-odd block per cutoff
(`x_sectors`); the squeezed vacua of a column of δ are read off one of
the squeeze generator's in one product (`squeeze_sectors`)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LEAKAGE_TOL = 1e-10


class TruncationError(RuntimeError):
    """State has non-negligible weight at the top of the Fock ladder."""


class NumericalError(ValueError):
    """A computed quantity left its domain: a failure of the numerics, not bad input."""


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated oscillator space with Fock levels 0..cutoff inclusive."""

    cutoff: int

    def __post_init__(self):
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1 and an integer, got {self.cutoff!r}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _even_odd_svd(off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD B = Y diag(s) Zᵀ, s descending, of the even-odd block
    B = T[0::2, 1::2] of the symmetric tridiagonal T with a zero diagonal
    and off-diagonal `off`. B is lower bidiagonal, ⌈dim/2⌉ × ⌊dim/2⌋, and Y
    is square: for an odd dim its last column spans the null space of Bᵀ,
    and s is padded with a 0 and Z with a zero column to match.
    """
    off = np.asarray(off, dtype=float)
    b = np.zeros(((off.size + 2) // 2, (off.size + 1) // 2))
    np.fill_diagonal(b, off[0::2])
    np.fill_diagonal(b[1:], off[1::2])
    y, s, zt = np.linalg.svd(b)
    pad = y.shape[0] - s.size
    return y, np.concatenate((s, np.zeros(pad))), np.hstack((zt.T, np.zeros((zt.shape[1], pad))))


@lru_cache(maxsize=4)
def x_sectors(spec: HilbertSpec) -> tuple:
    """X's eigenbasis as half-size sectors (Y, s, Z, Y_s, Z_s, (C₀, C₁)),
    read-only, from the one SVD X[0::2, 1::2] = Y diag(s) Zᵀ per cutoff.

    Sector a holds the eigenpairs (±s_a, [y_a; ±z_a]/√2); an odd dim adds
    the null mode [y; 0] as a last sector, with s = 0 and a zero column of
    Z (Golub & Kahan, 1965). So with B = (Y, Z) an even f(X) has block
    B_p diag(f(s)) B_pᵀ on parity p, and an odd one B_{1-p} diag(f(s)) B_pᵀ
    from p to 1 - p. As P = F†XF, F = diag((-i)ⁿ), f(P) reads the same on
    W = (Y_s, Z_s) = (S_0 Y, S_1 Z), S = diag((-1)^⌊n/2⌋), up to phases:
    i sin λP has block (2p - 1) W_{1-p} diag(sin λs) W_pᵀ. C_p = B_pᵀW_p
    takes a block from the P to the X sectors.
    """
    y, s, z = _even_odd_svd(np.sqrt(np.arange(1, spec.dim) / 2))
    y_s, z_s = (i_power_signs(spec.dim)[p::2, None] * b for p, b in enumerate((y, z)))
    c = (y.T @ y_s, z.T @ z_s)
    for a in (y, s, z, y_s, z_s, *c):
        a.setflags(write=False)
    return y, s, z, y_s, z_s, c


def i_power_signs(count: int) -> np.ndarray:
    """(-1)^⌊k/2⌋ for k = 0..count-1: iᵏ is this sign times 1 or i."""
    return (-1.0) ** (np.arange(count) // 2)


@lru_cache(maxsize=4)
def squeeze_sectors(spec: HilbertSpec) -> tuple:
    """(Y, s, Z) of the SVD of J's even-odd block, J the δ-free squeeze
    generator of `squeezed_vacuum`, read-only, once per cutoff; the rows of
    Y and Z, at the k-th even level, signed by (-1)^⌊(k+1)/2⌋, and the null
    mode of an odd size padded as in `x_sectors`."""
    n = np.arange(0, spec.dim, 2)
    y, s, z = _even_odd_svd(np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)))
    y, z = (i_power_signs(n.size + 1)[1 + p::2, None] * b for p, b in enumerate((y, z)))
    for a in (y, s, z):
        a.setflags(write=False)
    return y, s, z


def squeezed_vacuum(spec: HilbertSpec, delta) -> np.ndarray:
    """Squeezed vacuum of X-width delta, Var_X = delta²/2; real, read-only, on
    the even Fock levels only; an array of deltas gives one row each, read
    in one product off the SVD that `squeeze_sectors` caches per cutoff."""
    delta = np.asarray(delta, dtype=float)
    if not ((0 < delta) & (delta <= 1)).all():
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    # The generator -½ ln δ (XP + PX) = (i/2) ln δ (a² - a†²) couples only
    # n ↔ n+2, also truncated, so the vacuum stays on the even levels n. With
    # D = diag(iᵏ) along them the generator is D (tJ) D†, t = -½ ln δ, J real
    # symmetric tridiagonal with a zero diagonal and no δ in it. Its sign is
    # fixed by the variance contract (tested), since (XP + PX) sign
    # conventions differ between sources. The vacuum is D exp(itJ) e₀. With
    # the even k first tJ = [[0, tB], [tBᵀ, 0]], so from B = Y diag(s) Zᵀ,
    # exp(itJ) e₀ is Y cos(ts) y₀ on even k and i Z sin(ts) y₀ on odd k, y₀
    # the first row of Y; iᵏ, which takes the i, is in the row signs. The
    # sign of each pair (y_a, z_a) cancels. Each row of ts is one delta, and
    # each product a matrix-vector one, so a row rounds as it would alone.
    y, s, z = squeeze_sectors(spec)
    ts = -0.5 * np.log(delta)[..., None] * s
    ket = np.zeros(delta.shape + (spec.dim,))
    ket[..., 0::4] = (y @ (np.cos(ts) * y[0])[..., None])[..., 0]
    ket[..., 2::4] = (z @ (np.sin(ts) * y[0])[..., None])[..., 0]
    # δ = 1 is the vacuum exactly, where Y Y[0]ᵀ is e₀ only to rounding.
    ket[delta == 1] = np.eye(1, spec.dim)
    ket.setflags(write=False)
    return ket


def normalize(ket: np.ndarray) -> np.ndarray:
    # ket / ‖ket‖, per ket of a stack, each norm from its own dot product
    n = np.sqrt((ket.conj()[..., None, :] @ ket[..., None]).real)[..., 0]
    if not n.all():
        raise NumericalError("cannot normalize zero state")
    return ket / n


def leakage(ket: np.ndarray) -> float:
    """Population of a ket in the top two Fock levels."""
    return float(np.abs(ket[-1]) ** 2 + np.abs(ket[-2]) ** 2)


def check_leakage(lk: float) -> None:
    if lk >= LEAKAGE_TOL:
        raise TruncationError(
            f"truncation leakage {lk:.3e} exceeds {LEAKAGE_TOL:.0e}; increase the cutoff")

