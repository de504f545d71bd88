import numpy as np
import pytest
import scipy.linalg

from gkp_readout.fock import (
    HilbertSpec,
    normalize,
    squeezed_vacuum,
    x_sectors,
)
from hybrid_oracle import (
    apply,
    displacement,
    expectation,
    expm_i_hermitian,
    fock_ket,
    function_of_p,
    function_of_x,
    hybrid_dim,
    hybrid_unitarity_defect,
    ket_to_density,
    make_quadratures,
    partial_trace_qubit,
    rabi_gate,
    unitarity_defect,
    vacuum,
)

SPEC = HilbertSpec(60)
X, P = make_quadratures(SPEC)


def variance(op, state):
    m2 = expectation(op @ op, state).real
    m1 = expectation(op, state).real
    return m2 - m1**2


def test_cutoff_validation():
    with pytest.raises(ValueError):
        HilbertSpec(0)
    for bad in (150.0, 150.5, np.float64(150.0), "150"):
        with pytest.raises(ValueError, match="integer"):
            HilbertSpec(bad)
    assert HilbertSpec(5).dim == 6 and HilbertSpec(np.int64(5)).dim == 6
    assert hybrid_dim(HilbertSpec(5)) == 12


def test_vacuum_quadrature_moments():
    v = vacuum(SPEC)
    assert abs(expectation(X, v)) < 1e-14
    assert abs(expectation(P, v)) < 1e-14
    assert abs(variance(X, v) - 0.5) < 1e-12


def test_commutator_on_lower_block():
    comm = X @ P - P @ X - 1j * np.eye(SPEC.dim)
    m = SPEC.cutoff - 5
    assert np.max(np.abs(comm[:m, :m])) < 1e-8


@pytest.mark.parametrize("n", [0, 1, 5, 20])
def test_symmetrized_xp_vanishes_on_number_states(n):
    sym = X @ P + P @ X
    assert abs(expectation(sym, fock_ket(SPEC, n))) < 1e-12


def test_displacement_zero_is_identity():
    d = displacement(SPEC, 0.0)
    assert np.max(np.abs(d - np.eye(SPEC.dim))) < 1e-12


def test_displacement_moves_quadratures():
    # alpha = 1 shifts <X> to sqrt(2); oracle: coherent-state algebra
    v = vacuum(SPEC)
    dv = displacement(SPEC, 1.0) @ v
    assert abs(expectation(X, dv).real - np.sqrt(2)) < 1e-10
    dv = displacement(SPEC, 0.5j) @ v
    assert abs(expectation(P, dv).real - np.sqrt(2) * 0.5) < 1e-10


def test_displacement_inverse():
    d = displacement(SPEC, 0.8 - 0.3j)
    dinv = displacement(SPEC, -0.8 + 0.3j)
    prod = d @ dinv
    m = SPEC.cutoff - 5
    assert np.max(np.abs((prod - np.eye(SPEC.dim))[:m, :m])) < 1e-9


def test_displacement_composition_magnitude():
    # |<psi| D(a) D(b) |psi>| = |<psi| D(a+b) |psi>| (phases differ)
    a, b = 0.4 + 0.2j, -0.1 + 0.5j
    psi = displacement(SPEC, 0.3) @ vacuum(SPEC)
    two = displacement(SPEC, a) @ (displacement(SPEC, b) @ psi)
    one = displacement(SPEC, a + b) @ psi
    assert abs(abs(np.vdot(psi, two)) - abs(np.vdot(psi, one))) < 1e-8


def test_squeeze_identity_at_one():
    assert np.array_equal(squeezed_vacuum(SPEC, 1.0), vacuum(SPEC))


@pytest.mark.parametrize("cutoff", [1, 2, 59, 150, 300])
def test_squeeze_matches_dense_generator(cutoff):
    # Oracle: exp(iH) of the dense truncated generator -½ ln δ (XP + PX)
    spec = HilbertSpec(cutoff)
    x_op, p_op = make_quadratures(spec)
    xp = x_op @ p_op + p_op @ x_op
    for delta in [10 ** (-db / 20) for db in (7, 10, 14)] + [1.0]:
        u = expm_i_hermitian(-0.5 * np.log(delta) * xp)
        assert np.max(np.abs(squeezed_vacuum(spec, delta) - u[:, 0])) < 1e-12


def _squeezed_vacuum_per_delta(spec, delta):
    # A fresh SVD at every δ of the even-odd block of J, the generator along
    # the even levels n with its phases taken out: exp(iJ)e₀ is Y cos(s) y₀
    # on the even positions k and i Z sin(s) y₀ on the odd ones, and iᵏ
    # makes both real.
    n = np.arange(0, spec.dim, 2)
    off = -0.5 * np.log(delta) * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    y, s, zt = np.linalg.svd((np.diag(off, 1) + np.diag(off, -1))[0::2, 1::2])
    cos_s = np.ones(y.shape[1])
    cos_s[:s.size] = np.cos(s)
    amp = np.empty(n.size)
    amp[0::2] = y @ (cos_s * y[0])
    amp[1::2] = zt.T @ (np.sin(s) * y[0, :s.size])
    ket = np.zeros(spec.dim)
    ket[n] = (-1.0) ** ((np.arange(n.size) + 1) // 2) * amp
    return ket


@pytest.mark.parametrize("cutoff", [60, 61, 62, 300, 301, 302])
def test_squeeze_matches_per_delta_svd(cutoff):
    # One SVD per cutoff serves every δ: the generator's block is
    # -½ ln δ times a fixed matrix. The block has a null mode at 60, 61,
    # 300 and 301, and none at 62 and 302.
    spec = HilbertSpec(cutoff)
    for delta in (0.9, 0.5, 0.2, 0.1):
        sv = squeezed_vacuum(spec, delta)
        assert np.max(np.abs(sv - _squeezed_vacuum_per_delta(spec, delta))) <= 1e-13
        assert sv.dtype == np.float64 and not sv.flags.writeable
        assert not np.any(sv[1::2])


def test_squeeze_variance_convention():
    # Oracle: numerical integration of the squeezed-vacuum wavefunction.
    # The anti-squeezed quadrature converges slowly in N, hence the
    # larger space here.
    spec = HilbertSpec(150)
    x_op, _ = make_quadratures(spec)
    delta = np.sqrt(0.1)
    sv = squeezed_vacuum(spec, delta)
    assert abs(variance(x_op, sv) - 0.05) < 1e-10
    x = np.linspace(-4, 4, 20001)
    wf = (np.pi * delta**2) ** -0.25 * np.exp(-(x**2) / (2 * delta**2))
    var_oracle = np.trapezoid(x**2 * wf**2, x)
    assert abs(variance(x_op, sv) - var_oracle) < 1e-8


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.8])
def test_squeeze_saturates_uncertainty(delta):
    spec = HilbertSpec(150)
    x_op, p_op = make_quadratures(spec)
    sv = squeezed_vacuum(spec, delta)
    assert abs(variance(x_op, sv) * variance(p_op, sv) - 0.25) < 1e-8


def test_rabi_gate_zero_is_identity():
    for k in "xyz":
        g = rabi_gate(SPEC, k, 0.0)
        assert np.max(np.abs(g - np.eye(hybrid_dim(SPEC)))) < 1e-12


def test_rabi_gate_inverse():
    lam = 0.13
    prod = rabi_gate(SPEC, "y", -lam) @ rabi_gate(SPEC, "y", lam)
    m = SPEC.cutoff - 5
    e = (prod - np.eye(hybrid_dim(SPEC))).reshape(2, SPEC.dim, 2, SPEC.dim)
    assert np.max(np.abs(e[:, :m, :, :m])) < 1e-9


def test_rabi_gate_block_diagonal_in_pauli_eigenbasis():
    # On the sigma_x = +1 branch, U_x acts as a plain displacement
    psi = squeezed_vacuum(SPEC, 0.5)
    plus = np.array([1, 1]) / np.sqrt(2)
    joint = np.kron(plus, psi)
    out = rabi_gate(SPEC, "x", 1j * np.sqrt(np.pi) / 2) @ joint
    expected = np.kron(plus, expm_i_hermitian((np.sqrt(np.pi) / 2) * X) @ psi)
    assert np.max(np.abs(out - expected)) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 2.0, 1j * np.sqrt(np.pi) / 2, 3 - 2j])
def test_gate_unitarity(alpha):
    assert unitarity_defect(displacement(SPEC, alpha), SPEC) < 1e-9
    assert hybrid_unitarity_defect(rabi_gate(SPEC, "x", alpha), SPEC) < 1e-9


def sector_eigenpairs(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and eigenvectors V of truncated X, assembled
    from `x_sectors`: sector a gives (±s_a, [y_a; ±z_a]/√2), and the null
    sector of an odd dim (s = 0, zero column of Z) gives (0, [y; 0])."""
    y, s, z = x_sectors(spec)[:3]
    half, odd = spec.dim // 2, spec.dim % 2
    # s is descending, so -s ascends.
    y_pair, z_pair = y[:, :half] * np.sqrt(0.5), z[:, :half] * np.sqrt(0.5)
    v = np.empty((spec.dim, spec.dim))
    v[0::2] = np.hstack((y_pair, y[:, half:], y_pair[:, ::-1]))
    v[1::2] = np.hstack((-z_pair, z[:, half:], z_pair[:, ::-1]))
    return np.concatenate((-s[:half], s[half:], s[:half][::-1])), v


@pytest.mark.parametrize("cutoff", [60, 150, 300])
def test_cached_eigenpairs_diagonalize_x_and_p(cutoff):
    spec = HilbertSpec(cutoff)
    x_op, p_op = make_quadratures(spec)
    w, v = sector_eigenpairs(spec)
    assert np.max(np.abs(x_op @ v - v * w)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(spec.dim))) < 1e-12
    # P = F†XF, F = diag((-i)ⁿ), shares the eigenvalues
    vp = np.array([1, 1j, -1, -1j])[np.arange(spec.dim) % 4, None] * v
    assert np.max(np.abs(p_op @ vp - vp * w)) < 1e-12
    # One decomposition per cutoff, shared and read-only
    sectors = x_sectors(spec)
    assert x_sectors(HilbertSpec(cutoff)) is sectors
    assert not any(a.flags.writeable for a in (*sectors[:5], *sectors[5]))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 151, 152, 301])
def test_zero_diagonal_eigh_matches_tridiagonal_solver(dim):
    # The SVD of X's even-odd block gives the eigenpairs of a general
    # tridiagonal solver, odd and even dimensions alike: ascending w, and
    # the same orthonormal V up to the sign of each column
    spec = HilbertSpec(dim - 1)
    y, s, z = x_sectors(spec)[:3]
    x_op = make_quadratures(spec)[0].real
    half = (dim + 1) // 2
    assert y.shape == (half, half) and z.shape == (dim // 2, half) and s.shape == (half,)
    assert np.max(np.abs((y * s) @ z.T - x_op[0::2, 1::2])) < 1e-13
    w, v = sector_eigenpairs(spec)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(np.zeros(dim), np.sqrt(np.arange(1, dim) / 2))
    assert np.all(np.diff(w) > 0)
    assert np.max(np.abs(w - w_ref)) < 1e-13
    signs = np.sign(np.sum(v * v_ref, axis=0))
    assert np.max(np.abs(v * signs - v_ref)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(dim))) < 1e-13


@pytest.mark.parametrize("cutoff", [60, 150])
@pytest.mark.parametrize("lam", [0.0957, 0.3])
def test_signed_rows_give_real_parity_blocks_of_functions_of_p(cutoff, lam):
    # On the signed sectors W = (Y_s, Z_s) cos λP has block
    # W_p diag(cos λs) W_pᵀ on parity p and none across, i sin λP the block
    # (2p - 1) W_{1-p} diag(sin λs) W_pᵀ from p to 1 - p and none within
    spec = HilbertSpec(cutoff)
    _, s, _, y_s, z_s, _ = x_sectors(spec)
    signed = (y_s, z_s)
    cos_p = function_of_p(spec, lambda x: np.cos(lam * x))
    isin_p = 1j * function_of_p(spec, lambda x: np.sin(lam * x))
    for p in (0, 1):
        w_p, w_q = signed[p], signed[1 - p]
        assert np.max(np.abs((w_p * np.cos(lam * s)) @ w_p.T - cos_p[p::2, p::2])) < 1e-12
        assert np.max(np.abs((2 * p - 1) * (w_q * np.sin(lam * s)) @ w_p.T
                             - isin_p[1 - p::2, p::2])) < 1e-12
        assert np.max(np.abs(cos_p[1 - p::2, p::2])) < 1e-12
        assert np.max(np.abs(isin_p[p::2, p::2])) < 1e-12
    # Built once per cutoff, shared and read-only
    assert x_sectors(HilbertSpec(cutoff))[3] is y_s
    assert not (y_s.flags.writeable or z_s.flags.writeable)


def test_quadrature_functions_match_dense_exponential():
    c = 0.37
    assert np.max(np.abs(function_of_x(SPEC, lambda w: np.exp(1j * c * w))
                         - scipy.linalg.expm(1j * c * X))) < 1e-12
    assert np.max(np.abs(function_of_p(SPEC, lambda w: np.exp(1j * c * w))
                         - scipy.linalg.expm(1j * c * P))) < 1e-12


def test_expm_matches_scipy_on_anti_hermitian():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    h = (h + h.conj().T) / 2
    h *= 10 / np.linalg.norm(h, 2)
    ours = expm_i_hermitian(h)
    ref = scipy.linalg.expm(1j * h)
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_expectation_identity_and_mismatch():
    v = vacuum(SPEC)
    assert abs(expectation(np.eye(SPEC.dim), v) - 1) < 1e-12
    with pytest.raises(ValueError):
        expectation(X, vacuum(HilbertSpec(10)))
    with pytest.raises(ValueError):
        apply(X, vacuum(HilbertSpec(10)))


def test_partial_trace_qubit():
    joint = np.kron(np.array([1.0, 0.0]), vacuum(SPEC))
    rho_q = partial_trace_qubit(joint)
    assert np.max(np.abs(rho_q - np.diag([1.0, 0.0]))) < 1e-12
    rho_q2 = partial_trace_qubit(ket_to_density(joint))
    assert np.max(np.abs(rho_q2 - np.diag([1.0, 0.0]))) < 1e-12


def test_normalize():
    v = 3.0 * vacuum(SPEC)
    assert abs(np.linalg.norm(normalize(v)) - 1) < 1e-12
    with pytest.raises(ValueError):
        normalize(np.zeros(SPEC.dim))
