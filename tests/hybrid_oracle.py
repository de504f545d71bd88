"""Dense single-mode operators and the exact qubit ⊗ oscillator
construction of the readout circuit, as plain numpy arrays.

This is the slow reference the package is tested against. The dense
part builds quadratures, displacements and functions of X and P as full
(N+1)² matrices on X's eigenbasis from its own dense eigh, where the
package works on real half-size Fock-parity blocks of one cached SVD.
The hybrid part applies the readout gates on the full 2(N+1)-dimensional
space, with the qubit as the slow (outer) tensor factor, so
index = q*(N+1) + n. It also holds the displacement channel on the full
X eigenbasis, the golden-section cross-check of the
optimal interaction strength, and the position densities along the
Hermite-function recurrence that the homodyne's per-bin quadrature
reference integrates.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh

from gkp_readout.analytics import lambda_seed, p_err_improved_formula
from gkp_readout.fock import HilbertSpec


def destroy(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator a in the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1, spec.dim, dtype=float)), 1).astype(complex)


def make_quadratures(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadratures X = (a + a†)/√2 and P = (a - a†)/(i√2), with [X, P] = i."""
    a = destroy(spec)
    ad = a.conj().T
    return (a + ad) / np.sqrt(2), (a - ad) / (1j * np.sqrt(2))


def _i_powers(count: int) -> np.ndarray:
    """iᵏ for k = 0..count-1. With count = dim, the diagonal of F† where
    truncated P = F† X F exactly."""
    return np.array([1, 1j, -1, -1j])[np.arange(count) % 4]


@lru_cache(maxsize=8)
def x_eigenbasis(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and real orthonormal eigenvectors V of
    truncated X, from a dense eigh of the tridiagonal matrix; read-only.
    Column signs are arbitrary, and cancel in everything built on V here."""
    w, v = np.linalg.eigh(make_quadratures(spec)[0].real)
    for a in (w, v):
        a.setflags(write=False)
    return w, v


def signed_x_rows(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd rows (U_0, U_1) of U = diag((-1)^⌊n/2⌋)·V: on parity p,
    P's eigenvectors are U_p's times 1 (even) or i (odd)."""
    u = (-1.0) ** (np.arange(spec.dim) // 2)[:, None] * x_eigenbasis(spec)[1]
    return u[0::2], u[1::2]


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


def ket_to_density(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def expm_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H, via eigendecomposition (exactly unitary)."""
    w, v = eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def displacement(spec: HilbertSpec, alpha: complex) -> np.ndarray:
    """Displacement D(α) = exp[√2 i(-Re[α] P + Im[α] X)].

    Shifts <X> by √2 Re[α] and <P> by √2 Im[α].
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    x, p = make_quadratures(spec)
    return expm_i_hermitian(np.sqrt(2) * (np.imag(alpha) * x - np.real(alpha) * p))


def apply(op: np.ndarray, state: np.ndarray) -> np.ndarray:
    """op|ψ> for a ket, or op ρ op† for a density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return op @ state
    return op @ state @ op.conj().T


def expectation(op: np.ndarray, state: np.ndarray) -> complex:
    """<ψ|op|ψ> or Tr(ρ op)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return complex(np.vdot(state, op @ state))
    return complex(np.trace(op @ state))


def unitarity_defect(op: np.ndarray, spec: HilbertSpec) -> float:
    """Max-norm of U†U - I on the lower block (top Fock rows are corrupt)."""
    e = op.conj().T @ op - np.eye(op.shape[0])
    m = spec.cutoff - 5
    return float(np.max(np.abs(e[:m, :m])))


def stabilizer_displacement(spec: HilbertSpec) -> np.ndarray:
    """D(i sqrt(2π)) = exp(i 2 sqrt(π) X); its magnitude of expectation
    defines effective squeezing."""
    return function_of_x(spec, lambda w: np.exp(2j * np.sqrt(np.pi) * w))


def logical_z_displacement(spec: HilbertSpec) -> np.ndarray:
    """D(i sqrt(π/2)) = exp(i sqrt(π) X); approximate logical Z."""
    return function_of_x(spec, lambda w: np.exp(1j * np.sqrt(np.pi) * w))


def dense_displacement_channel(spec: HilbertSpec, state: np.ndarray,
                               sigma: float) -> np.ndarray:
    """The Gaussian displacement channel on the full X eigenbasis: the P
    pass multiplies block (p, q) of ρ on the signed basis U of P by the
    kernel exp(-σ²(w_j - w_k)²/2), the X pass does the same on V. The
    parity-diagonal blocks and the even-odd blocks pass apart, the latter
    with sign +1 on (0, 1) and -1 on (1, 0) in the P pass. Dense d × d
    products throughout, where the package works on half-size sectors."""
    state = np.asarray(state)
    w, v = x_eigenbasis(spec)
    u = signed_x_rows(spec)
    kernel = np.exp(-0.5 * sigma**2 * np.subtract.outer(w, w) ** 2)
    if state.ndim == 1:
        state = np.outer(state, state.conj())
    first = {(p, q): u[p].T @ state[p::2, q::2] @ u[q] for p, q in np.ndindex(2, 2)}
    out = np.zeros((spec.dim,) * 2, dtype=np.result_type(state, float))
    for part in ((((0, 0), 1), ((1, 1), 1)), (((0, 1), 1), ((1, 0), -1))):
        t = kernel * sum(sign * first[pq] for pq, sign in part)
        t = kernel * sum(sign * (v[p::2].T @ (u[p] @ t @ u[q].T) @ v[q::2])
                         for (p, q), sign in part)
        for (p, q), _ in part:
            out[p::2, q::2] = v[p::2] @ t @ v[q::2].T
    return out


def optimal_lambda_by_minimization(delta: float) -> float:
    """Independent cross-check of `optimal_lambda`: golden-section
    minimization of the improved-circuit formula, finished with one
    parabolic-fit step to beat the flatness floor of pure sectioning."""
    from scipy.optimize import minimize_scalar

    hi = 4 * np.sqrt(np.pi) * delta**2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")

        def f(l):
            return p_err_improved_formula(delta, l)

        res = minimize_scalar(f, bracket=(0.0, lambda_seed(delta), hi),
                              method="golden", options={"xtol": 1e-12})
        x, h = float(res.x), 1e-5
        fm, f0, fp = f(x - h), f(x), f(x + h)
        return x + h * (fm - fp) / (2 * (fm - 2 * f0 + fp))


def hermite_functions(dim: int, x: np.ndarray):
    """Yield φ_n(x) for n = 0..dim-1 by the stable upward recurrence on
    the normalized functions, holding two rows at a time."""
    prev, cur = np.zeros_like(x), np.pi ** -0.25 * np.exp(-0.5 * x**2)
    yield cur
    for n in range(1, dim):
        prev, cur = cur, np.sqrt(2.0 / n) * x * cur - np.sqrt((n - 1) / n) * prev
        yield cur


def position_wavefunctions(spec: HilbertSpec, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions φ_n(x), shape (dim, len(x)), in
    the X convention with vacuum variance 1/2."""
    x = np.asarray(x, dtype=float)
    phi = np.empty((spec.dim, x.size))
    for n, row in enumerate(hermite_functions(spec.dim, x)):
        phi[n] = row
    return phi


def position_density(spec: HilbertSpec, state: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|ψ(x)|² for a ket, or <x|ρ|x> for a density matrix."""
    state = np.asarray(state)
    phi = position_wavefunctions(spec, x)
    if state.ndim == 1:
        return np.abs(state @ phi) ** 2
    # φ is real, so only Re ρ contributes.
    return np.sum(phi * (state.real @ phi), axis=0)


def binned_misclassification(spec: HilbertSpec, state: np.ndarray, mu: int, kappa: float,
                             points: int = 2049) -> float:
    """Probability that an X measurement of the Fock state |mu~> lands in
    a decision bin [(k - 1/2)√π, (k + 1/2)√π] of the other logical value
    (k ≢ mu mod 2): one position density and one Simpson rule per bin."""
    root_pi = np.sqrt(np.pi)
    k_max = int(np.ceil((kappa * np.sqrt(2 * np.pi) + 6.0) / root_pi))
    total = 0.0
    for k in range(-k_max, k_max + 1):
        if k % 2 != mu:
            x = np.linspace((k - 0.5) * root_pi, (k + 0.5) * root_pi, points)
            total += simpson(position_density(spec, state, x), x=x)
    return total


def binned_p_err(pair, points: int = 2049) -> float:
    """Homodyne readout error of a Fock state pair by per-bin quadrature."""
    return 0.5 * sum(binned_misclassification(pair.spec, state, mu, pair.kappa, points)
                     for mu, state in ((0, pair.state0), (1, pair.state1)))


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def hybrid_dim(spec: HilbertSpec) -> int:
    return 2 * spec.dim


def rabi_gate(spec: HilbertSpec, k: str, alpha: complex) -> np.ndarray:
    """Qubit-conditioned displacement U_k(α) = exp[i(-Re[α] P + Im[α] X) σ_k]."""
    if k not in PAULI:
        raise ValueError(f"k must be one of x, y, z, got {k!r}")
    x, p = make_quadratures(spec)
    return expm_i_hermitian(np.kron(PAULI[k], np.imag(alpha) * x - np.real(alpha) * p))


def readout_unitary(spec: HilbertSpec, lam: float) -> np.ndarray:
    """U_x(i sqrt(pi)/2) · U_y(-lambda) on the hybrid space."""
    ux = rabi_gate(spec, "x", 1j * np.sqrt(np.pi) / 2)
    if lam == 0:
        return ux
    return ux @ rabi_gate(spec, "y", -lam)


def embed_qubit_zero(osc_state: np.ndarray) -> np.ndarray:
    """|0>_qubit ⊗ state. Works for kets and density matrices."""
    osc_state = np.asarray(osc_state, dtype=complex)
    d = osc_state.shape[0]
    if osc_state.ndim == 1:
        out = np.zeros(2 * d, dtype=complex)
        out[:d] = osc_state
    else:
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = osc_state
    return out


def partial_trace_qubit(hybrid_state: np.ndarray) -> np.ndarray:
    """Reduced 2x2 qubit density matrix of a hybrid ket or density matrix."""
    hybrid_state = np.asarray(hybrid_state, dtype=complex)
    d = hybrid_state.shape[0] // 2
    if hybrid_state.ndim == 1:
        a = hybrid_state.reshape(2, d)
        return a @ a.conj().T
    return np.einsum("injn->ij", hybrid_state.reshape(2, d, 2, d))


def partial_trace_oscillator(hybrid_state: np.ndarray) -> np.ndarray:
    """Reduced oscillator density matrix of a hybrid ket or density matrix."""
    hybrid_state = np.asarray(hybrid_state, dtype=complex)
    d = hybrid_state.shape[0] // 2
    if hybrid_state.ndim == 1:
        a = hybrid_state.reshape(2, d)
        return np.einsum("qm,qn->mn", a, a.conj())
    return np.einsum("qmqn->mn", hybrid_state.reshape(2, d, 2, d))


def hybrid_unitarity_defect(op: np.ndarray, spec: HilbertSpec) -> float:
    """Max-norm of U†U - I on the lower Fock block of both qubit sectors."""
    e = op.conj().T @ op - np.eye(op.shape[0])
    m = spec.cutoff - 5
    return float(np.max(np.abs(e.reshape(2, spec.dim, 2, spec.dim)[:, :m, :, :m])))


def run_readout_hybrid(spec: HilbertSpec, state: np.ndarray, unitary: np.ndarray):
    """(p0, p1, post0, post1) of one circuit run, from the qubit blocks of
    U (|0><0| ⊗ state) U†; post-states are normalized."""
    state = np.asarray(state, dtype=complex)
    hybrid = apply(unitary, embed_qubit_zero(state))
    d = spec.dim
    if state.ndim == 1:
        halves = [hybrid[:d], hybrid[d:]]
        probs = [float(np.linalg.norm(h) ** 2) for h in halves]
        posts = [h / np.sqrt(p) for h, p in zip(halves, probs)]
    else:
        blocks = [hybrid[:d, :d], hybrid[d:, d:]]
        probs = [float(np.trace(b).real) for b in blocks]
        posts = [b / p for b, p in zip(blocks, probs)]
    return probs[0], probs[1], posts[0], posts[1]


def enumerate_branches_hybrid(spec: HilbertSpec, state: np.ndarray, unitary: np.ndarray,
                              rounds: int, prune: float = 1e-15):
    """[(outcomes, probability, post-state)] of every outcome history of
    `rounds` runs, each from `run_readout_hybrid`, in the order 0 before 1."""
    branches = [("", 1.0, np.asarray(state, dtype=complex))]
    for _ in range(rounds):
        nxt = []
        for outcomes, prob, post in branches:
            p0, p1, post0, post1 = run_readout_hybrid(spec, post, unitary)
            nxt += [(outcomes + bit, prob * p, s)
                    for bit, p, s in (("0", p0, post0), ("1", p1, post1))
                    if prob * p > prune]
        branches = nxt
    return branches
