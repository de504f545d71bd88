"""Exact qubit ⊗ oscillator construction of the readout circuit.

This is the slow reference the Kraus-pair readout in `gkp_readout.readout`
is tested against: the gates act on the full 2(N+1)-dimensional hybrid
space, with the qubit as the slow (outer) tensor factor, so
index = q*(N+1) + n.
"""

from __future__ import annotations

import numpy as np

from gkp_readout.fock import HilbertSpec, LinearOp, apply, expm_i_hermitian, make_quadratures

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def hybrid_dim(spec: HilbertSpec) -> int:
    return 2 * spec.dim


def rabi_gate(spec: HilbertSpec, k: str, alpha: complex) -> LinearOp:
    """Qubit-conditioned displacement U_k(α) = exp[i(-Re[α] P + Im[α] X) σ_k]."""
    if k not in PAULI:
        raise ValueError(f"k must be one of x, y, z, got {k!r}")
    x, p = make_quadratures(spec)
    g_osc = np.imag(alpha) * x.matrix - np.real(alpha) * p.matrix
    return LinearOp(expm_i_hermitian(np.kron(PAULI[k], g_osc)))


def readout_unitary(spec: HilbertSpec, lam: float) -> LinearOp:
    """U_x(i sqrt(pi)/2) · U_y(-lambda) on the hybrid space."""
    ux = rabi_gate(spec, "x", 1j * np.sqrt(np.pi) / 2)
    if lam == 0:
        return ux
    uy = rabi_gate(spec, "y", -lam)
    return LinearOp(ux.matrix @ uy.matrix)


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


def hybrid_unitarity_defect(op: LinearOp, spec: HilbertSpec) -> float:
    """Max-norm of U†U - I on the lower Fock block of both qubit sectors."""
    e = op.matrix.conj().T @ op.matrix - np.eye(op.dim)
    m = spec.cutoff - 5
    return float(np.max(np.abs(e.reshape(2, spec.dim, 2, spec.dim)[:, :m, :, :m])))


def run_readout_hybrid(spec: HilbertSpec, state: np.ndarray, unitary: LinearOp):
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


def enumerate_branches_hybrid(spec: HilbertSpec, state: np.ndarray, unitary: LinearOp,
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
