import math

import numpy as np
import pytest

from gkp_readout import states
from gkp_readout.fock import (
    HilbertSpec,
    TruncationError,
    leakage,
    normalize,
    squeezed_vacuum,
    x_sectors,
)
from gkp_readout.states import (
    HALF_SPACING,
    UnsupportedStateError,
    assemble_density,
    auto_cutoff,
    check_point,
    converged_pair,
    converged_pairs,
    db_to_delta,
    delta_db,
    effective_squeezing,
    export_state_csv,
    export_state_json,
    gaussian_displacement_channel,
    gkp_kets,
    helstrom_bound,
    make_state_pair,
    peak_weights,
    purity,
    x_populations,
)
from hybrid_oracle import (
    dense_displacement_channel,
    displacement,
    expectation,
    ket_to_density,
    logical_z_displacement,
    make_quadratures,
    p_eigenbasis,
    position_density,
    position_wavefunctions,
    stabilizer_displacement,
    vacuum,
    x_eigenbasis,
)

SPEC = HilbertSpec(150)
DELTA_10DB = np.sqrt(0.1)


def channel_fock(spec, state, sigma):
    """The displacement channel's output as a Fock density matrix."""
    return assemble_density(spec, gaussian_displacement_channel(spec, state, sigma))


@pytest.fixture(scope="module")
def pair_10db():
    return make_state_pair(SPEC, DELTA_10DB)


def test_delta_db_roundtrip():
    for db in (5.0, 10.0, 14.0):
        assert abs(delta_db(db_to_delta(db)) - db) < 1e-12
    assert abs(db_to_delta(10.0) - 0.31622776601683794) < 1e-15


def test_gkp_spec_validation(monkeypatch):
    # A point's delta, kappa and sigma are checked where it enters the
    # cutoff search, before any ket is built; a point is checked whatever
    # the sigmas, so with none it resolves kappa = None and gives no pair
    assert converged_pairs((0.3,), (None,), ()) == []
    calls = []
    monkeypatch.setattr(states, "gkp_kets", lambda *args: calls.append(args))
    monkeypatch.setattr(states, "_gkp_pair", lambda *args: calls.append(args))
    cases = [((1.2, None, 0.0), "delta must be in"),
             ((0.3, 0.5, 0.0), "kappa must be finite and >= 1"),
             ((0.3, None, -0.1), "sigma must be finite and >= 0")]
    for bad in (np.nan, np.inf, -np.inf):
        cases += [((bad, None, 0.0), "delta must be in"), ((0.3, bad, 0.0), "kappa must be finite"),
                  ((0.3, None, bad), "sigma must be finite")]
    for (delta, kappa, sigma), message in cases:
        with pytest.raises(ValueError, match=message):
            check_point(delta, kappa, sigma)
        with pytest.raises(ValueError, match=message):
            make_state_pair(SPEC, delta, kappa, sigma)
        with pytest.raises(ValueError, match=message):
            converged_pairs([0.3, delta], [None, kappa], (0.0, sigma))
    # A cutoff is an integer where the search enters it
    for start in (150.5, 150.0):
        with pytest.raises(ValueError, match="integer"):
            converged_pairs([0.3], [None], (0.0,), start)
    assert calls == []
    assert abs(check_point(0.25) - 4.0) < 1e-12 and check_point(0.25, 3.0, 0.1) == 3.0


def test_pure_gkp_normalized_and_converged(pair_10db):
    for k in (pair_10db.state0, pair_10db.state1):
        assert abs(np.linalg.norm(k) - 1) < 1e-12
        assert leakage(k) < 1e-10


def test_logical_z_sign_and_magnitude(pair_10db):
    z = logical_z_displacement(SPEC)
    e0 = expectation(z, pair_10db.state0)
    e1 = expectation(z, pair_10db.state1)
    ref = np.exp(-np.pi * DELTA_10DB**2 / 4)
    assert abs(e0.imag) < 1e-6 and abs(e1.imag) < 1e-6
    assert e0.real > 0 > e1.real
    for e in (e0, e1):
        assert ref * 0.95 < abs(e) < ref * 1.05


@pytest.mark.parametrize("delta", [0.25, 0.3, 0.35])
def test_logical_z_magnitude_band(delta):
    spec = auto_cutoff(delta)
    z = logical_z_displacement(spec)
    ref = np.exp(-np.pi * delta**2 / 4)
    pair = make_state_pair(spec, delta)
    for mu, k in enumerate((pair.state0, pair.state1)):
        e = expectation(z, k)
        assert (-1) ** mu * e.real > 0
        assert ref * 0.95 < abs(e) < ref * 1.05


def test_ideal_limit_monotone():
    # <D(i sqrt(2 pi))> climbs toward +1 as delta = 1/kappa shrinks
    vals = []
    for delta in (0.5, 0.4, 0.3):
        spec = auto_cutoff(delta)
        k = make_state_pair(spec, delta).state0
        vals.append(abs(expectation(stabilizer_displacement(spec), k)))
    assert vals[0] < vals[1] < vals[2] < 1.0


def test_effective_squeezing_of_pure_states():
    for delta in (0.2, DELTA_10DB):
        spec = auto_cutoff(delta, kappa=1 / delta if delta > 0.25 else 5.0)
        k = make_state_pair(spec, delta, None if delta > 0.25 else 5.0).state0
        assert abs(effective_squeezing(spec, k) - delta) < 2e-3


@pytest.mark.parametrize("db", [7.0, 10.0, 14.0])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_effective_squeezing_matches_stabilizer_expectation(db, sigma):
    # Oracle: <D(i sqrt(2 pi))> from the full stabilizer matrix, on GKP
    # states and on the complex input displaced by D(0.3 + 0.2i)
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    d = displacement(spec, 0.3 + 0.2j)
    ket = make_state_pair(spec, delta).state0
    stab = stabilizer_displacement(spec)
    for state in (ket, d @ ket):
        state = channel_fock(spec, state, sigma)
        e = abs(expectation(stab, state))
        ref = np.sqrt(np.log(1.0 / min(e, 1.0) ** 2) / (2 * np.pi))
        assert abs(effective_squeezing(spec, state) - ref) < 1e-13


@pytest.mark.parametrize("cutoff", [150, 151])
def test_x_populations_match_dense_eigenbasis(cutoff):
    # Oracle: the diagonal of VᵀρV on a dense eigh of X. Eigenvalue ±s_a
    # holds ½(sym_a ± anti_a), the null mode of an odd dim sym_a, on a
    # complex ket with both parities and on a density matrix with even-odd
    # coherence
    spec = HilbertSpec(cutoff)
    w, v = x_eigenbasis(spec)
    s = x_sectors(spec)[1]
    ket = displacement(spec, 0.3 + 0.2j) @ make_state_pair(spec, DELTA_10DB).state0
    rho = channel_fock(spec, ket, 0.1)
    for state in (ket, rho):
        ref = np.real(np.diag(v.T @ ket_to_density(state) @ v) if state.ndim == 1
                      else np.diag(v.T @ state @ v))
        sym, anti = x_populations(spec, state)
        pairs = spec.dim // 2
        assert np.max(np.abs(w[::-1][:pairs] - s[:pairs])) < 1e-12
        assert np.max(np.abs(ref[::-1][:pairs] - 0.5 * (sym + anti)[:pairs])) < 1e-13
        assert np.max(np.abs(ref[:pairs] - 0.5 * (sym - anti)[:pairs])) < 1e-13
        if spec.dim % 2:
            assert abs(ref[pairs] - sym[-1]) < 1e-13 and anti[-1] == 0
        assert abs(anti @ s) > 0.1  # the displaced input has <X> ≠ 0


def test_x_populations_without_parity_coherence():
    # The channel output of a GKP ket has no even-odd block: anti is exactly
    # zero, and sym still matches the dense eigenbasis (odd dim: a null mode)
    spec = HilbertSpec(150)
    w, v = x_eigenbasis(spec)
    rho = channel_fock(spec, make_state_pair(spec, DELTA_10DB).state1, 0.1)
    assert not rho[0::2, 1::2].any()
    sym, anti = x_populations(spec, rho)
    assert anti.shape == sym.shape and not anti.any()
    ref = np.diag(v.T @ rho @ v)
    pairs = spec.dim // 2
    assert np.max(np.abs(ref[::-1][:pairs] - 0.5 * sym[:pairs])) < 1e-13
    assert np.max(np.abs(ref[:pairs] - 0.5 * sym[:pairs])) < 1e-13
    assert abs(ref[pairs] - sym[-1]) < 1e-13


def test_effective_squeezing_of_vacuum():
    # Oracle: |<vac|D(a)|vac>| = e^{-|a|^2/2} gives exactly 1 here
    assert abs(effective_squeezing(SPEC, vacuum(SPEC)) - 1.0) < 1e-10


def test_mu1_node_at_origin():
    # Oracle: direct Gaussian-sum evaluation puts a node at x=0
    for delta in (0.25, 0.35):
        spec = auto_cutoff(delta)
        k1 = make_state_pair(spec, delta).state1
        x = np.linspace(-8, 8, 2001)
        dens = position_density(spec, k1, x)
        at0 = position_density(spec, k1, np.array([0.0]))[0]
        assert at0 < 1e-4 * dens.max()


def test_peak_count_stability():
    # Adding two more peaks per side changes the state negligibly
    pair = make_state_pair(SPEC, DELTA_10DB)
    base = pair.state0
    from scipy.linalg import eigh

    sq = squeezed_vacuum(SPEC, pair.delta)
    _, p = make_quadratures(SPEC)
    w, v = eigh(p)
    sq_p = v.conj().T @ sq
    j, weights = peak_weights((pair.kappa,))
    s_vals = j[weights[0, 0] > 0] // 2
    extended = np.concatenate([s_vals, [s_vals.min() - 1, s_vals.min() - 2,
                                        s_vals.max() + 1, s_vals.max() + 2]])
    psi = np.zeros(SPEC.dim, dtype=complex)
    for s in extended:
        c = HALF_SPACING * 2 * s
        psi += np.exp(-(c**2) / pair.kappa**2) * (v @ (np.exp(-1j * np.sqrt(2) * c * w) * sq_p))
    psi = normalize(psi)
    assert abs(1 - abs(np.vdot(base, psi)) ** 2) < 1e-10


def test_peak_indices_match_the_outward_walk():
    # Reference: walk out from s = 0 on each side until a peak's weight
    # falls below the floor. The weights of one column of kappas must keep
    # exactly those peaks j = 2s + mu, each at its envelope weight
    def walk(mu, kappa):
        kept = [0]
        for step in (1, -1):
            s = step
            c = HALF_SPACING * (2 * s + mu)
            while np.exp(-(c**2) / kappa**2) >= states.PEAK_WEIGHT_FLOOR:
                kept.append(s)
                s += step
                c = HALF_SPACING * (2 * s + mu)
        return sorted(kept)

    kappas = [*np.linspace(1.0, 60.0, 237),
              *(1 / db_to_delta(db) for db in np.linspace(0.01, 30.0, 301))]
    j, weights = peak_weights(kappas)
    for kappa, w in zip(kappas, weights):
        for mu in (0, 1):
            kept = w[mu] > 0
            assert ((j[kept] - mu) // 2).tolist() == walk(mu, kappa)
            assert np.array_equal(w[mu][kept], np.exp(-((HALF_SPACING * j[kept]) ** 2) / kappa**2))


@pytest.mark.parametrize("db", [7.0, 10.0, 14.0])
def test_pure_gkp_comb_matches_per_peak_sum(db):
    # The summed-phase comb equals one displaced squeezed vacuum per peak
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    w, v = p_eigenbasis(spec)
    base_p = v.conj().T @ squeezed_vacuum(spec, delta)
    pair = make_state_pair(spec, delta)
    j, weights = peak_weights((pair.kappa,))
    for mu, ket in enumerate((pair.state0, pair.state1)):
        psi = np.zeros(spec.dim, dtype=complex)
        for s in (j[weights[0, mu] > 0] - mu) // 2:
            c = HALF_SPACING * (2 * s + mu)
            phase = np.exp(-1j * np.sqrt(2) * c * w)
            psi += np.exp(-(c**2) / pair.kappa**2) * (v @ (phase * base_p))
        psi = normalize(psi)
        assert np.max(np.abs(ket - psi)) < 1e-13


@pytest.mark.parametrize("db", [7.0, 10.0, 14.0])
def test_pure_gkp_is_real_even_and_cached(db, monkeypatch, cold_caches):
    # auto_cutoff and then pairs at its cutoff, mixed and pure: the kets at
    # that cutoff are built in one gkp_kets call, in the search, and the
    # pairs read them from the per-point cache
    cutoffs = []
    build = states.gkp_kets
    monkeypatch.setattr(states, "gkp_kets", lambda spec, *args:
                        cutoffs.append(spec.cutoff) or build(spec, *args))
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    assert cutoffs.count(spec.cutoff) == 1
    searched = len(cutoffs)
    mixed = make_state_pair(spec, delta, sigma=0.1)
    pure = make_state_pair(spec, delta)
    assert mixed.spec == spec and not mixed.is_pure
    for mu, ket in enumerate((pure.state0, pure.state1)):
        assert np.isrealobj(ket)
        assert np.all(ket[1::2] == 0)
        assert not ket.flags.writeable
        assert make_state_pair(spec, delta).sectors[mu] is ket
    assert len(cutoffs) == searched


def test_cached_ket_still_checks_leakage():
    # At a fixed cutoff the search returns a leaking pair flagged, not
    # raised; make_state_pair of the same cached kets still raises
    spec = HilbertSpec(20)
    loose = converged_pairs((0.5,), (2.0,), start=20, largest=20)[0][0]
    assert loose.spec == spec and not loose.converged
    with pytest.raises(TruncationError):
        make_state_pair(spec, 0.5, 2.0)


def test_strict_pair_checks_channel_output():
    # At 11.5 dB and N = 150 the kets leak 3.7e-11, under the tolerance,
    # but the sigma = 0.15 channel output of |1~> leaks 1.2e-10, over it
    delta = db_to_delta(11.5)
    make_state_pair(SPEC, delta)
    with pytest.raises(TruncationError):
        make_state_pair(SPEC, delta, sigma=0.15)
    loose = converged_pairs((delta,), (None,), (0.15,), SPEC.cutoff, SPEC.cutoff)[0][0]
    assert loose.leakages[0] < 1e-10 < loose.leakages[1]


@pytest.mark.parametrize("db", [7.0, 10.0, 14.0])
def test_channel_keeps_real_parity_blocks(db):
    # The channel commutes with parity: an even ket stays block-diagonal
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    rho = channel_fock(spec, make_state_pair(spec, delta).state1, 0.1)
    assert np.isrealobj(rho)
    assert np.all(rho[0::2, 1::2] == 0) and np.all(rho[1::2, 0::2] == 0)
    assert np.max(np.abs(rho[1::2, 1::2])) > 1e-3


def test_channel_general_input_matches_quadrature_oracle(pair_10db):
    # A complex ket with both parities and even-odd coherence
    ket = displacement(SPEC, 0.3 + 0.2j) @ pair_10db.state0
    rho = channel_fock(SPEC, ket, 0.1)
    assert np.max(np.abs(rho[0::2, 1::2])) > 1e-3
    oracle = gauss_hermite_channel(SPEC, ket_to_density(ket), 0.1, 51)
    assert np.max(np.abs(rho - oracle)) < 1e-12


def test_channel_identity_at_zero_sigma(pair_10db):
    # At sigma = 0 the kernel is exactly the identity: the output is the
    # input's sector blocks, to the rounding of the basis changes
    out = channel_fock(SPEC, pair_10db.state0, 0.0)
    assert np.max(np.abs(out - ket_to_density(pair_10db.state0))) < 1e-15


def test_channel_trace_hermiticity_and_delta_eff(pair_10db):
    rho = channel_fock(SPEC, pair_10db.state0, 0.1)
    assert abs(np.trace(rho).real - 1) < 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-9
    assert abs(effective_squeezing(SPEC, rho) - np.sqrt(0.1 + 2 * 0.01)) < 2e-3


def test_channel_monotone_in_sigma(pair_10db):
    prev_purity, prev_deff = 1.0, effective_squeezing(SPEC, pair_10db.state0)
    for sigma in (0.05, 0.1, 0.15):
        blocks = gaussian_displacement_channel(SPEC, pair_10db.state0, sigma)
        pur, deff = purity(blocks), effective_squeezing(SPEC, blocks)
        assert pur < prev_purity
        assert deff > prev_deff
        prev_purity, prev_deff = pur, deff


def test_channel_semigroup(pair_10db):
    # Not exact: truncated displacements do not compose exactly
    a = channel_fock(SPEC, pair_10db.state0, 0.06)
    ab = channel_fock(SPEC, a, 0.08)
    direct = channel_fock(SPEC, pair_10db.state0, 0.1)
    assert np.max(np.abs(ab - direct)) < 1e-8


def gauss_hermite_channel(spec, rho, sigma, nodes):
    """Oracle: average of shifted copies over Gauss-Hermite nodes, first
    along X (generator P), then along P (generator X)."""
    from numpy.polynomial.hermite import hermgauss

    t, gw = hermgauss(nodes)
    for w, v in (p_eigenbasis(spec), x_eigenbasis(spec)):
        rho_e = v.conj().T @ rho @ v
        out = np.zeros_like(rho_e)
        for ti, wi in zip(t, gw / np.sqrt(np.pi)):
            phase = np.exp(1j * np.sqrt(2) * sigma * ti * w)
            out += wi * (phase[:, None] * rho_e * phase.conj()[None, :])
        rho = v @ out @ v.conj().T
    return rho


def test_mixed_purity_regression(pair_10db):
    # Frozen from the first converged quadrature run
    rho = channel_fock(SPEC, pair_10db.state0, 0.1)
    assert abs(purity(rho) - 0.8338332682) < 1e-8
    oracle = gauss_hermite_channel(SPEC, ket_to_density(pair_10db.state0), 0.1, 51)
    assert np.max(np.abs(rho - oracle)) < 1e-12


def test_channel_density_input_matches_ket_input(pair_10db):
    from_ket = channel_fock(SPEC, pair_10db.state0, 0.1)
    from_rho = channel_fock(SPEC, ket_to_density(pair_10db.state0), 0.1)
    assert np.max(np.abs(from_ket - from_rho)) < 1e-14


@pytest.mark.parametrize("parity", ["even", "odd", "both"])
def test_channel_ket_fast_path_matches_density_input(parity):
    # A real ket skips the outer product and its two basis changes; its
    # output equals that of its density matrix, and an even-odd block that
    # is zero on input stays exactly zero
    rng = np.random.default_rng(3)
    ket = rng.normal(size=SPEC.dim)
    if parity != "both":
        ket[(1 if parity == "even" else 0)::2] = 0
    ket /= np.linalg.norm(ket)
    from_ket = channel_fock(SPEC, ket, 0.1)
    from_rho = channel_fock(SPEC, np.outer(ket, ket), 0.1)
    assert np.max(np.abs(from_ket - from_rho)) < 1e-13
    assert np.all(from_ket[0::2, 1::2] == 0) == (parity != "both")


@pytest.mark.parametrize("cutoff", [150, 151])
@pytest.mark.parametrize("kind", ["even", "odd", "both", "coherent density", "complex ket",
                                  "complex density", "gkp"])
def test_channel_matches_dense_reference(cutoff, kind):
    # The half-size sector channel against the d × d one on the full X
    # eigenbasis, at an odd dim (N = 150, with the null mode) and an even one
    spec = HilbertSpec(cutoff)
    rng = np.random.default_rng(11)
    ket = rng.normal(size=spec.dim)
    if kind in ("even", "odd"):
        ket[(1 if kind == "even" else 0)::2] = 0
    if kind.startswith("complex"):
        ket = ket + 1j * rng.normal(size=spec.dim)
    if kind == "gkp":
        ket = make_state_pair(spec, DELTA_10DB).state1
    state = ket / np.linalg.norm(ket)
    if kind.endswith("density"):
        # A mixture of two kets, with even-odd coherence
        other = rng.normal(size=spec.dim)
        state = 0.7 * ket_to_density(state) + 0.3 * ket_to_density(other / np.linalg.norm(other))
        if np.isrealobj(ket):
            state = state.real
        assert np.max(np.abs(state[0::2, 1::2])) > 1e-3
    out = channel_fock(spec, state, 0.1)
    ref = dense_displacement_channel(spec, state, 0.1)
    assert np.iscomplexobj(out) == np.iscomplexobj(ref)
    assert np.max(np.abs(out - ref)) < 1e-14
    # An even-odd part that is zero on input stays exactly zero
    assert np.all(out[0::2, 1::2] == 0) == (kind in ("even", "odd", "gkp"))


@pytest.mark.parametrize("kind", ["ket", "density"])
def test_channel_passes_complex_input_through_linearly(pair_10db, kind):
    # Complex input runs through the same real blocks as real input: the
    # output is that of the real part plus i times that of the imaginary
    # part, and complex; real input stays real
    ket = displacement(SPEC, 0.3 + 0.2j) @ pair_10db.state0
    state = ket if kind == "ket" else ket_to_density(ket)
    rho = ket_to_density(ket)
    out = channel_fock(SPEC, state, 0.1)
    parts = [channel_fock(SPEC, x, 0.1) for x in (rho.real, rho.imag)]
    assert np.iscomplexobj(out) and all(np.isrealobj(x) for x in parts)
    assert np.max(np.abs(out - (parts[0] + 1j * parts[1]))) < 1e-15


def test_purity_basics(pair_10db):
    assert abs(purity(ket_to_density(pair_10db.state0)) - 1) < 1e-8
    assert abs(purity(np.diag([0.5, 0.5]).astype(complex)) - 0.5) < 1e-14
    rho = channel_fock(SPEC, pair_10db.state0, 0.1)
    assert abs(purity(rho) - np.trace(rho @ rho).real) < 1e-12
    # A real array is summed as it is, within the error bound n·eps·Σρᵢⱼ² of
    # a sum of n squares, against the correctly rounded sum
    exact = math.fsum((rho * rho).ravel())
    assert np.isrealobj(rho) and abs(purity(rho) - exact) < rho.size * np.finfo(float).eps * exact


def test_helstrom_edges():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert helstrom_bound(e0, e1) == 0.0
    assert abs(helstrom_bound(e0, e0) - 0.5) < 1e-12
    with pytest.raises(UnsupportedStateError):
        helstrom_bound(ket_to_density(e0), ket_to_density(e1))
    # Overlap 1e-10: the bound is 2.5e-21, where 1/2 (1 - sqrt(1 - 1e-20)) reads 0
    tilted = np.array([1e-10, np.sqrt(1 - 1e-20)])
    assert abs(helstrom_bound(e0, tilted) - 2.5e-21) < 1e-12 * 2.5e-21


def test_helstrom_dual_method():
    # Overlap from Fock inner product vs X-grid wavefunction integral
    pair = make_state_pair(SPEC, 0.5, 2.0)
    k0, k1 = pair.state0, pair.state1
    ov_fock = abs(np.vdot(k0, k1))
    x = np.linspace(-12, 12, 100001)
    phi = position_wavefunctions(SPEC, x).astype(complex)
    ov_grid = abs(np.trapezoid((k0 @ phi).conj() * (k1 @ phi), x))
    assert abs(ov_fock - ov_grid) < 1e-6


def test_auto_cutoff_grows_when_needed():
    assert auto_cutoff(DELTA_10DB).cutoff == 150
    assert auto_cutoff(0.2).cutoff == 300


def test_auto_cutoff_rejects_start_above_largest_cutoff():
    # A start above MAX_CUTOFF tries no cutoff: a bad argument, not a
    # convergence failure
    with pytest.raises(ValueError, match="start cutoff"):
        converged_pairs((DELTA_10DB,), (None,), start=states.MAX_CUTOFF + 1)


def test_converged_pair_raises_where_no_cutoff_converges(monkeypatch):
    # With N = 300 the largest cutoff tried, the 10 dB kets converge but
    # their sigma = 5 channel output still leaks 5.9e-6 (it converges at
    # N = 1200), and the kets of delta = 0.2 need N = 300 against a largest
    # 150: each is a truncation failure, not a flagged pair
    monkeypatch.setattr(states, "MAX_CUTOFF", 300)
    with pytest.raises(TruncationError, match="leakage"):
        converged_pair(DELTA_10DB, sigma=5.0)
    assert converged_pairs((DELTA_10DB,), (None,), (5.0,))[0][0].converged is False
    assert converged_pair(DELTA_10DB).converged and auto_cutoff(0.2).cutoff == 300
    monkeypatch.setattr(states, "MAX_CUTOFF", 150)
    with pytest.raises(TruncationError, match="leakage"):
        auto_cutoff(0.2)


def test_auto_cutoff_does_not_mask_bugs(monkeypatch):
    # Only truncation failures move the search on; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("broken state builder")

    monkeypatch.setattr(states, "_gkp_pair", broken)
    with pytest.raises(TypeError):
        auto_cutoff(DELTA_10DB)


def test_convergence_in_cutoff(pair_10db):
    # Doubling N leaves the stabilizer expectation unchanged
    big = HilbertSpec(300)
    k_big = make_state_pair(big, DELTA_10DB).state0
    e_small = abs(expectation(stabilizer_displacement(SPEC), pair_10db.state0))
    e_big = abs(expectation(stabilizer_displacement(big), k_big))
    assert abs(e_small - e_big) < 1e-8


def test_state_export(tmp_path):
    import csv
    import json

    k = converged_pairs((0.5,), (2.0,), (0.0,), 20, 20)[0][0].state0
    jpath = tmp_path / "state.json"
    export_state_json(k, str(jpath))
    payload = json.loads(jpath.read_text())
    assert payload["kind"] == "ket" and payload["dim"] == 21
    rebuilt = np.array(payload["amplitudes_re"]) + 1j * np.array(payload["amplitudes_im"])
    assert np.max(np.abs(rebuilt - k)) < 1e-15

    cpath = tmp_path / "rho.csv"
    export_state_csv(ket_to_density(k), str(cpath))
    rows = list(csv.reader(cpath.read_text().splitlines()))
    assert rows[0] == ["row", "col", "re", "im"]
    assert len(rows) == 1 + 21 * 21
    # Plain decimal text that reads back exactly
    rebuilt = np.array([[float(x) for x in row[2:]] for row in rows[1:]])
    assert np.array_equal(rebuilt[:, 0] + 1j * rebuilt[:, 1], ket_to_density(k).ravel())


def test_mixed_pair_reads_blocks_and_assembles_fock_on_first_read(monkeypatch):
    # is_pure, converged, populations, purity and delta_eff read the
    # channel's blocks. The first read of state0 assembles its array alone,
    # read-only, and the first read of state1 the other; state0 equals the
    # dense channel on the full X eigenbasis
    calls = []
    assemble = states.assemble_density

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(states, "assemble_density", counted)
    pair = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    assert not pair.is_pure and pair.converged and pair.helstrom is None
    sym, anti = pair.populations[0]
    pur, deff = pair.purity, pair.delta_eff
    assert calls == []
    rho = pair.state0
    assert len(calls) == 1 and pair.state0 is rho and not rho.flags.writeable
    assert calls[0][1] is pair.sectors[0]
    assert pair.state1 is pair.state1 and len(calls) == 2 and calls[1][1] is pair.sectors[1]
    ket = make_state_pair(SPEC, DELTA_10DB).state0
    assert np.max(np.abs(rho - dense_displacement_channel(SPEC, ket, 0.1))) < 1e-14
    # The readers give on the blocks what they give on the Fock array
    ref_sym, ref_anti = x_populations(SPEC, rho)
    assert np.max(np.abs(sym - ref_sym)) < 1e-15 and not anti.any() and not ref_anti.any()
    assert abs(pur - purity(rho)) < 1e-14
    assert abs(deff - effective_squeezing(SPEC, rho)) < 1e-14
    assert all(abs(lk - np.trace(s[-2:, -2:])) < 1e-16
               for lk, s in zip(pair.leakages, (rho, pair.state1)))


def test_pure_pair_derives_its_quantities_once_from_its_kets():
    # A pure pair's Fock arrays are its kets, and its purity, delta_eff and
    # Helstrom bound are the module functions' values on them, cached
    pair = make_state_pair(SPEC, DELTA_10DB)
    assert pair.is_pure and pair.state0 is pair.sectors[0] and pair.state1 is pair.sectors[1]
    assert pair.purity == purity(pair.state0)
    assert pair.delta_eff == effective_squeezing(SPEC, pair.state0)
    assert pair.helstrom == helstrom_bound(pair.state0, pair.state1)
    assert all(vars(pair)[name] is getattr(pair, name)
               for name in ("purity", "delta_eff", "helstrom"))


@pytest.mark.parametrize("cutoff", [150, 151])
def test_block_pair_reads_what_its_fock_arrays_give(cutoff):
    # Blocks with all four parity blocks (a displaced ket's channel output)
    # give the populations of their Fock arrays, and a mixed pair's blocks
    # the leakages of its Fock arrays, at an even and an odd dim
    spec = HilbertSpec(cutoff)
    pure = make_state_pair(spec, DELTA_10DB)
    kets = [displacement(spec, 0.3 + 0.2j) @ k for k in (pure.state0, pure.state1)]
    blocks = [gaussian_displacement_channel(spec, k, 0.1) for k in kets]
    rhos = [assemble_density(spec, b) for b in blocks]
    assert all(b.keys() == {(0, 0), (0, 1), (1, 0), (1, 1)} for b in blocks)
    for b, rho in zip(blocks, rhos):
        got, want = x_populations(spec, b), x_populations(spec, rho)
        assert max(np.max(np.abs(x - y)) for x, y in zip(got, want)) < 1e-14
    pair = make_state_pair(spec, DELTA_10DB, sigma=0.1)
    fock = [np.trace(rho[-2:, -2:]).real for rho in (pair.state0, pair.state1)]
    assert np.allclose(pair.leakages, fock, rtol=0, atol=1e-16)
    # And the Fock arrays' own blocks B_pᵀρ_pqB_q, taken in long double, give
    # back the blocks: a lift by B itself is 2.5e-15 to 5e-15 of max |x| off,
    # as B is orthogonal only to about 1e-15
    y, _, z = (b.astype(np.longdouble) for b in x_sectors(spec)[:3])
    for given, rho in zip(blocks, rhos):
        for (p, q), x in given.items():
            back = (y, z)[p].T @ rho[p::2, q::2] @ (y, z)[q]
            assert np.max(np.abs(back - x)) < 2e-15 * np.max(np.abs(x))


@pytest.mark.parametrize("cutoff", [150, 151])
def test_column_kets_equal_one_point_builds(cutoff):
    # Each ket of a column (kappa = 1/delta, or fixed) rounds as it would
    # alone: every product is a stack of matrix-vector ones and each comb
    # sums only its own peaks, so the column's kets equal the one-point
    # builds exactly, and a point's ket does not depend on its column
    spec = HilbertSpec(cutoff)
    deltas = [db_to_delta(db) for db in (7.0, 9.5, 11.0, 10.0)]
    kappas = [1 / d for d in deltas[:3]] + [3.0]
    column = gkp_kets(spec, deltas, kappas)
    assert column.shape == (4, 2, spec.dim) and not column.flags.writeable
    for i, (delta, kappa) in enumerate(zip(deltas, kappas)):
        assert np.array_equal(column[i], gkp_kets(spec, (delta,), (kappa,))[0])
        alone = make_state_pair(spec, delta, kappa)
        assert np.array_equal(column[i], (alone.state0, alone.state1))
    assert np.array_equal(gkp_kets(spec, deltas[1:3], kappas[1:3]), column[1:3])


def test_converged_pairs_gives_each_point_its_own_cutoff():
    # The column search gives every (delta, sigma) the pair that the
    # one-point search gives it: 11 dB converges at N = 150, 11.5 dB at
    # N = 150 for its kets and N = 300 for its sigma = 0.15 channel output,
    # 12 and 14 dB at N = 300
    deltas = [db_to_delta(db) for db in (11.0, 11.5, 12.0, 14.0)]
    sigmas = (0.0, 0.15)
    columns = converged_pairs(deltas, [None] * 4, sigmas)
    assert [[p.spec.cutoff for p in c] for c in columns] == [[150, 150, 300, 300],
                                                          [150, 300, 300, 300]]
    for sigma, column in zip(sigmas, columns):
        for delta, pair in zip(deltas, column):
            alone = converged_pair(delta, sigma=sigma)
            assert (pair.spec, pair.converged, pair.kappa) == (alone.spec, True, alone.kappa)
            for got, want in zip(pair.sectors, alone.sectors):
                if isinstance(want, dict):
                    assert got.keys() == want.keys()
                    assert all(np.array_equal(got[k], want[k]) for k in want)
                else:
                    assert np.array_equal(got, want)


def test_point_query_pattern_builds_each_ket_once(monkeypatch, cold_caches):
    # auto_cutoff(delta) and then make_state_pair at its cutoff, pure or
    # mixed: the search builds both kets in one call, and the pair reads
    # them from the per-point cache
    calls = []
    build = states.gkp_kets

    def counted(spec, deltas, kappas):
        calls.append((spec.cutoff, len(deltas)))
        return build(spec, deltas, kappas)

    monkeypatch.setattr(states, "gkp_kets", counted)
    for db, sigma in ((7.3, 0.0), (9.1, 0.05), (11.2, 0.1)):
        delta = db_to_delta(db)
        spec = auto_cutoff(delta, None, sigma)
        pair = make_state_pair(spec, delta, None, sigma)
        assert pair.converged and pair.sigma == sigma
    assert calls == [(150, 1)] * 3


def test_x_populations_of_a_fock_density_reads_only_diagonals(pair_10db):
    # A Fock density's populations, read off one product per sector block,
    # equal the diagonals of the channel's own blocks; a displaced ket gives
    # the density even-odd coherence
    ket = displacement(SPEC, 0.3 + 0.2j) @ pair_10db.state1
    blocks = gaussian_displacement_channel(SPEC, ket, 0.1)
    want = x_populations(SPEC, blocks)
    assert want[1].any()
    for got, ref in zip(x_populations(SPEC, assemble_density(SPEC, blocks)), want):
        assert np.max(np.abs(got - ref)) < 1e-15
