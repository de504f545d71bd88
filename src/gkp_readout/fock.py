"""Truncated Fock-space linear algebra for a single bosonic mode.

Operators are dense matrices over the number basis |0..N>. Functions of
X or P are built on one cached eigendecomposition of truncated X per
cutoff. Fock parity flips both truncated quadratures exactly, so even
functions of X or P keep parity and odd ones flip it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, expm as _scipy_expm

NORM_TOL = 1e-12
LEAKAGE_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operator and state were built under different Hilbert spaces."""


class TruncationError(RuntimeError):
    """State has non-negligible weight at the top of the Fock ladder."""


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated oscillator space with Fock levels 0..cutoff inclusive."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


@dataclass(frozen=True)
class LinearOp:
    """Dense operator on the oscillator space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other):
        if isinstance(other, LinearOp):
            if other.dim != self.dim:
                raise DimensionMismatchError(
                    f"operator dims {self.dim} vs {other.dim}")
            return LinearOp(self.matrix @ other.matrix)
        return self.matrix @ np.asarray(other)


def destroy(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator a in the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1, spec.dim, dtype=float)), 1).astype(complex)


def make_quadratures(spec: HilbertSpec) -> tuple[LinearOp, LinearOp]:
    """Quadratures X = (a + a†)/√2 and P = (a - a†)/(i√2), with [X, P] = i."""
    a = destroy(spec)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2)
    p = (a - ad) / (1j * np.sqrt(2))
    return LinearOp(x), LinearOp(p)


@lru_cache(maxsize=4)
def x_eigenbasis(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and real orthonormal eigenvectors V of truncated X,
    X = V diag(w) Vᵀ. Computed on first use per cutoff and cached
    (read-only arrays).

    Truncated X is the Hermite Jacobi matrix (zero diagonal, off-diagonal
    sqrt(n/2)), so w are the Gauss-Hermite nodes.
    """
    w, v = eigh_tridiagonal(np.zeros(spec.dim), np.sqrt(np.arange(1, spec.dim) / 2))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def i_power_signs(count: int) -> np.ndarray:
    """(-1)^⌊k/2⌋ for k = 0..count-1: iᵏ is this sign times 1 or i."""
    return (-1.0) ** (np.arange(count) // 2)


def _i_powers(count: int) -> np.ndarray:
    """iᵏ for k = 0..count-1. With count = dim, the diagonal of F† where
    truncated P = F† X F exactly."""
    return np.array([1, 1j, -1, -1j])[np.arange(count) % 4]


def p_eigenbasis(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (those of X) and eigenvectors diag(iⁿ)·V of truncated P."""
    w, v = x_eigenbasis(spec)
    return w, _i_powers(spec.dim)[:, None] * v


def function_of_x(spec: HilbertSpec, f) -> np.ndarray:
    """f(X) = V diag(f(w)) Vᵀ for an elementwise function f."""
    w, v = x_eigenbasis(spec)
    return (v * f(w)) @ v.T


def function_of_p(spec: HilbertSpec, f) -> np.ndarray:
    """f(P) = F† f(X) F, with F = diag((-i)ⁿ)."""
    phase = _i_powers(spec.dim)
    return phase[:, None] * function_of_x(spec, f) * phase.conj()[None, :]


def fock_ket(spec: HilbertSpec, n: int) -> np.ndarray:
    ket = np.zeros(spec.dim, dtype=complex)
    ket[n] = 1.0
    return ket


def vacuum(spec: HilbertSpec) -> np.ndarray:
    return fock_ket(spec, 0)


def expm_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H, via eigendecomposition (exactly unitary)."""
    w, v = eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def expm(generator: LinearOp | np.ndarray) -> LinearOp:
    """Matrix exponential of a generator.

    Anti-Hermitian generators (G = iH) are routed through the
    eigendecomposition path, exactly unitary; everything else falls back
    to scipy's scaling-and-squaring.
    """
    g = generator.matrix if isinstance(generator, LinearOp) else np.asarray(generator, complex)
    h = -1j * g
    if np.max(np.abs(h - h.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(h))):
        return LinearOp(expm_i_hermitian(h))
    return LinearOp(_scipy_expm(g))


def displacement(spec: HilbertSpec, alpha: complex) -> LinearOp:
    """Displacement D(α) = exp[√2 i(-Re[α] P + Im[α] X)].

    Shifts <X> by √2 Re[α] and <P> by √2 Im[α].
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    x, p = make_quadratures(spec)
    h = np.sqrt(2) * (np.imag(alpha) * x.matrix - np.real(alpha) * p.matrix)
    return LinearOp(expm_i_hermitian(h))


def _squeeze_block(spec: HilbertSpec, delta: float, parity: int):
    """Block (n, V, θ) of squeeze(delta) on the Fock levels n of one
    parity: B diag(e^{iθ}) B† with B = D·V.

    The generator -½ ln δ (XP + PX) = (i/2) ln δ (a² - a†²) couples only
    n ↔ n+2, also truncated. With D = diag(iᵏ) along the block it is
    D J D†, J real symmetric tridiagonal with eigenpairs (θ, V).
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    n = np.arange(parity, spec.dim, 2)
    off = -0.5 * np.log(delta) * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    theta, v = eigh_tridiagonal(np.zeros(n.size), off)
    return n, v, theta


def squeeze(spec: HilbertSpec, delta: float) -> LinearOp:
    """Squeezing operator mapping vacuum to X-width delta: Var_X = delta²/2,
    built from its two parity blocks.

    Generator sign is fixed by that variance contract (tested), since
    (XP + PX) sign conventions differ between sources.
    """
    u = np.zeros((spec.dim, spec.dim), dtype=complex)
    for parity in (0, 1):
        n, v, theta = _squeeze_block(spec, delta, parity)
        b = _i_powers(n.size)[:, None] * v
        u[np.ix_(n, n)] = (b * np.exp(1j * theta)) @ b.conj().T
    return LinearOp(u)


def squeezed_vacuum(spec: HilbertSpec, delta: float) -> np.ndarray:
    """squeeze(delta)|0>, from the even block alone; real."""
    # This is D exp(iJ) e₀. J is tridiagonal with a zero diagonal, so entry
    # k of exp(iJ) e₀ = V cos(θ) V₀ + i V sin(θ) V₀ is real on even k and
    # imaginary on odd k; times iᵏ it is (-1)^⌊(k+1)/2⌋ times the cosine
    # part (even k) or the sine part (odd k).
    n, v, theta = _squeeze_block(spec, delta, 0)
    amp = np.empty(n.size)
    amp[0::2] = v[0::2] @ (np.cos(theta) * v[0])
    amp[1::2] = v[1::2] @ (np.sin(theta) * v[0])
    ket = np.zeros(spec.dim)
    ket[n] = i_power_signs(n.size + 1)[1:] * amp
    return ket


def apply(op: LinearOp, state: np.ndarray) -> np.ndarray:
    """op|ψ> for a ket, or op ρ op† for a density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"operator dim {op.dim} vs state dim {state.shape[0]}")
    if state.ndim == 1:
        return op.matrix @ state
    return op.matrix @ state @ op.matrix.conj().T


def expectation(op: LinearOp, state: np.ndarray) -> complex:
    """<ψ|op|ψ> or Tr(ρ op)."""
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"operator dim {op.dim} vs state dim {state.shape[0]}")
    if state.ndim == 1:
        return complex(np.vdot(state, op.matrix @ state))
    return complex(np.trace(op.matrix @ state))


def normalize(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim == 1:
        n = np.linalg.norm(state)
        if n == 0:
            raise ValueError("cannot normalize zero state")
        return state / n
    tr = np.trace(state).real
    if tr <= 0:
        raise ValueError("cannot normalize non-positive-trace density matrix")
    return state / tr


def ket_to_density(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def leakage(state: np.ndarray) -> float:
    """Population in the top two Fock levels (oscillator states only)."""
    state = np.asarray(state)
    if state.ndim == 1:
        return float(np.abs(state[-1]) ** 2 + np.abs(state[-2]) ** 2)
    return float(np.real(state[-1, -1] + state[-2, -2]))


def check_leakage(state: np.ndarray, tol: float = LEAKAGE_TOL) -> None:
    lk = leakage(state)
    if lk >= tol:
        raise TruncationError(
            f"truncation leakage {lk:.3e} exceeds {tol:.0e}; increase the cutoff")


def unitarity_defect(op: LinearOp, spec: HilbertSpec) -> float:
    """Max-norm of U†U - I on the lower block (top Fock rows are corrupt)."""
    e = op.matrix.conj().T @ op.matrix - np.eye(op.dim)
    m = spec.cutoff - 5
    return float(np.max(np.abs(e[:m, :m])))


def _hermite_functions(dim: int, x: np.ndarray):
    """Yield φ_n(x) for n = 0..dim-1 by the stable upward recurrence on
    the normalized functions, holding two rows at a time."""
    prev, cur = np.zeros_like(x), np.pi ** -0.25 * np.exp(-0.5 * x**2)
    yield cur
    for n in range(1, dim):
        prev, cur = cur, np.sqrt(2.0 / n) * x * cur - np.sqrt((n - 1) / n) * prev
        yield cur


def position_wavefunctions(spec: HilbertSpec, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions φ_n(x), shape (dim, len(x)).

    The X convention here has vacuum variance 1/2.
    """
    x = np.asarray(x, dtype=float)
    phi = np.empty((spec.dim, x.size))
    for n, row in enumerate(_hermite_functions(spec.dim, x)):
        phi[n] = row
    return phi


def position_density(spec: HilbertSpec, state: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|ψ(x)|² for a ket, accumulated along the recurrence without a
    (dim, len(x)) table, or <x|ρ|x> for a density matrix."""
    state = np.asarray(state)
    x = np.asarray(x, dtype=float)
    if state.ndim == 1:
        psi = np.zeros(x.shape, dtype=np.result_type(state, float))
        for amp, phi in zip(state, _hermite_functions(spec.dim, x)):
            psi += amp * phi
        return np.abs(psi) ** 2
    phi = position_wavefunctions(spec, x)
    # φ is real, so only Re ρ contributes.
    return np.sum(phi * (state.real @ phi), axis=0)
