import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gkp_readout.analytics import (
    optimal_lambda,
    p_err_homodyne_formula,
    p_err_improved_formula,
    p_err_simple_formula,
)
from gkp_readout.fock import HilbertSpec, x_sectors
from gkp_readout.readout import (
    Branch,
    CircuitParams,
    ReadoutOutcome,
    homodyne_p_err_numeric,
    one_round_curve,
    post_state,
    readout_error,
    readout_errors,
    sector_kraus,
    simulated_p_err,
)
from gkp_readout.states import (
    GkpStatePair,
    assemble_density,
    auto_cutoff,
    converged_pairs,
    db_to_delta,
    gaussian_displacement_channel,
    helstrom_bound,
    make_state_pair,
    peak_weights,
)
from hybrid_oracle import (
    apply,
    binned_misclassification,
    binned_p_err,
    displacement,
    embed_qubit_zero,
    enumerate_branches_hybrid,
    expectation,
    function_of_p,
    function_of_x,
    ket_to_density,
    logical_z_displacement,
    partial_trace_oscillator,
    rabi_gate,
    readout_unitary,
    run_readout_hybrid,
)
from fock_twin import HeldStates, fock_p_err
from readout_once import fock_kraus, run_readout_once

SPEC = HilbertSpec(150)
DELTA_10DB = np.sqrt(0.1)


@pytest.fixture(scope="module")
def pair_10db():
    return make_state_pair(SPEC, DELTA_10DB)


def test_circuit_params_validation():
    with pytest.raises(ValueError):
        CircuitParams(0.0, 2)
    with pytest.raises(ValueError):
        CircuitParams(0.0, 11)
    with pytest.raises(ValueError):
        CircuitParams(1.5, 1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lambda"):
            CircuitParams(bad, 1)
    with pytest.warns(UserWarning):
        CircuitParams(0.7, 1)
    # rounds is an integer where it enters, not later in the enumeration
    for bad in (3.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="rounds must be an odd integer"):
            CircuitParams(0.0, bad)
    for good in (True, np.int64(3), np.int32(5)):
        params = CircuitParams(0.1, good)
        assert readout_error(make_state_pair(SPEC, DELTA_10DB), params) > 0


def test_outcome_probability_identity():
    out = ReadoutOutcome(p_1_given_0=0.04, p_0_given_1=0.02)
    assert out.p_err == 0.5 * (0.04 + 0.02)


def test_simple_circuit_matches_expectation_value(pair_10db):
    # p0 - p1 = Re<D(i sqrt(pi/2))> for the lambda = 0 circuit
    z = logical_z_displacement(SPEC)
    for state in (pair_10db.state0, pair_10db.state1):
        p0, p1, _, _ = run_readout_once(SPEC, state, 0.0)
        assert abs((p0 - p1) - expectation(z, state).real) < 1e-8
        assert abs(p0 + p1 - 1) < 1e-10


def test_outcome_calibration_small_delta():
    # Near-ideal |0~> gives outcome 0 almost surely
    spec = auto_cutoff(0.15)
    k0 = make_state_pair(spec, 0.15).state0
    p0, p1, _, _ = run_readout_once(spec, k0, 0.0)
    assert p1 < 1e-2
    assert p0 > 0.99


def test_lambda_zero_equals_gate_omitted(pair_10db):
    with_uy = readout_unitary(SPEC, 0.0)
    ux_only = rabi_gate(SPEC, "x", 1j * np.sqrt(np.pi) / 2)
    psi = pair_10db.state0
    p0a, p1a, _, _ = run_readout_hybrid(SPEC, psi, with_uy)
    p0b, p1b, _, _ = run_readout_hybrid(SPEC, psi, ux_only)
    assert abs(p0a - p0b) < 1e-14
    assert abs(p1a - p1b) < 1e-14


@pytest.fixture(scope="module")
def oracle_case():
    """db -> (spec, pure pair, mixed pair, {lambda: hybrid unitary}) at
    lambda = 0 and optimal lambda; each built once, since the
    2(N+1)-dim gates are slow."""
    cases = {}

    def build(db):
        if db not in cases:
            delta = db_to_delta(db)
            spec = auto_cutoff(delta)
            lams = (0.0, optimal_lambda(delta))
            cases[db] = (spec, make_state_pair(spec, delta),
                         make_state_pair(spec, delta, sigma=0.1),
                         {lam: readout_unitary(spec, lam) for lam in lams})
        return cases[db]

    return build


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b))


@pytest.mark.parametrize("db", [7, 10, 14])
def test_kraus_pair_matches_hybrid_oracle(oracle_case, db):
    spec, pure, mixed, unitaries = oracle_case(db)
    for lam, unitary in unitaries.items():
        kraus = fock_kraus(spec, lam)
        for state in (pure.state0, pure.state1, mixed.state0, mixed.state1):
            got = run_readout_once(spec, state, lam, kraus=kraus)
            want = run_readout_hybrid(spec, state, unitary)
            for g, w in zip(got, want):
                assert _rel(g, w) < 1e-10


@pytest.mark.parametrize("db", [7, 10, 14])
def test_kraus_pair_completeness(oracle_case, db):
    # K0†K0 + K1†K1 = I on the lower block, as unitarity_defect checks U†U;
    # on the X sectors of parity p it is B_pᵀB_p, which is 0 on the null
    # sector of an odd dim's parity 1 (the auto cutoffs give odd dims)
    spec, _, _, unitaries = oracle_case(db)
    assert spec.dim % 2 == 1
    m = spec.cutoff - 5
    y, _, z = x_sectors(spec)[:3]
    for lam in unitaries:
        k0, k1 = fock_kraus(spec, lam)
        e = k0.conj().T @ k0 + k1.conj().T @ k1 - np.eye(spec.dim)
        assert np.max(np.abs(e[:m, :m])) < 1e-12
        a, b = sector_kraus(spec, lam)
        for p, basis in enumerate((y, z)):
            e = a[p].T @ a[p] + b[p].T @ b[p] - basis.T @ basis
            assert np.max(np.abs(e)) < 1e-12
        assert not (a[1][:, -1].any() or b[1][:, -1].any() or a[1][-1].any() or b[0][-1].any())


@pytest.mark.parametrize("db", [7, 10, 14])
def test_kraus_blocks_are_real_and_parity_exact(db):
    # Dense complex K0 = C cos(lam P) - i S sin(lam P), K1 = i S cos(lam P)
    # - C sin(lam P) are real and parity-preserving, and purely imaginary
    # and parity-flipping; the real blocks reassemble them
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    half = np.sqrt(np.pi) / 2
    c = function_of_x(spec, lambda w: np.cos(half * w))
    s = function_of_x(spec, lambda w: np.sin(half * w))
    for lam in (0.0, optimal_lambda(delta)):
        cl = function_of_p(spec, lambda w: np.cos(lam * w))
        sl = function_of_p(spec, lambda w: np.sin(lam * w))
        dense0 = c @ cl - 1j * (s @ sl)
        dense1 = 1j * (s @ cl) - c @ sl
        assert np.max(np.abs(dense0.imag)) < 1e-13
        assert np.max(np.abs(dense1.real)) < 1e-13
        even = np.zeros(spec.dim)
        even[0::2] = 1.0
        assert np.max(np.abs(dense0 @ even * (1 - even))) < 1e-13
        assert np.max(np.abs(dense1 @ even * even)) < 1e-13
        a, b = sector_kraus(spec, lam)
        assert all(np.isrealobj(blk) for blk in (*a, *b))
        k0, k1 = fock_kraus(spec, lam)
        assert np.max(np.abs(k0 - dense0)) < 1e-12
        assert np.max(np.abs(k1 - dense1)) < 1e-12


def test_kraus_factors_cached_read_only():
    # The lambda-independent Kraus factors are built once per cutoff and
    # shared, as read-only half-size blocks
    from gkp_readout.readout import _kraus_factors

    first = _kraus_factors(SPEC)
    assert _kraus_factors(HilbertSpec(SPEC.cutoff)) is first
    assert _kraus_factors(HilbertSpec(SPEC.cutoff + 1)) is not first
    half = (SPEC.dim + 1) // 2
    for g, h, _ in (factor for op in first for factor in op):
        for blk in (g, h):
            assert blk.shape == (half, half)
            assert not blk.flags.writeable


@pytest.fixture(scope="module", params=[(db, sigma, None) for db in (7.0, 10.0, 14.0)
                                        for sigma in (0.0, 0.1)]
                + [(db, sigma, 3.0) for db in (7.0, 10.0) for sigma in (0.0, 0.1)])
def curve_case(request):
    """A grid point, ket (sigma = 0) or mixed (sigma = 0.1), its exact
    one-round curve, and a lambda grid from 0 through the optimum to 0.3.
    Kappa is 1/delta, or fixed at 3."""
    db, sigma, kappa = request.param
    delta = db_to_delta(db)
    pair = GkpStatePair(SPEC, delta, 1 / delta if kappa is None else kappa, sigma)
    lam = optimal_lambda(delta)
    return pair, one_round_curve(pair), np.array([0.0, 0.5 * lam, lam, 0.1, 0.2, 0.3])


def test_error_curve_matches_simulated_p_err(curve_case):
    # The curve is the branch enumeration at one round, summed in closed
    # form, and for kappa = 1/delta it is checked against the 40-digit form
    # too. Its value cancels from 1/2 down to p_err, so it carries an
    # absolute rounding error of order 1e-16; 2e-16 is 2e-11 relative at the
    # 14 dB optimum of the ket pair, p_err = 1.09e-5.
    pair, curve, lams = curve_case
    refs = [np.array([simulated_p_err(pair, CircuitParams(lam, 1)).p_err for lam in lams])]
    if pair.kappa == 1 / pair.delta:
        refs.append(np.array([float(mpmath_one_round_p_err(pair.delta, pair.sigma, lam))
                              for lam in lams]))
    for ref in refs:
        for got in (curve(lams), [curve(lam) for lam in lams]):
            assert np.all(np.abs(got - ref) <= 1e-12 * ref + 2e-16)


def test_error_curve_slope_matches_central_difference(curve_case):
    _, curve, lams = curve_case
    h = 1e-5
    central = (curve(lams + h) - curve(lams - h)) / (2 * h)
    slope = curve(lams, 1)
    assert np.max(np.abs(slope - central)) < 1e-7 * np.max(np.abs(central))
    assert np.allclose([curve(lam, 1) for lam in lams], slope, rtol=1e-12, atol=1e-15)


def test_error_curve_curvature_matches_central_difference(curve_case):
    # The slope and the curvature differentiate the curve's Gaussian terms
    # each on its own, so the curvature is checked against the slope
    _, curve, lams = curve_case
    h = 1e-5
    central = (curve(lams + h, 1) - curve(lams - h, 1)) / (2 * h)
    curvature = curve(lams, 2)
    assert np.max(np.abs(curvature - central)) < 1e-7 * np.max(np.abs(central))
    assert np.allclose([curve(lam, 2) for lam in lams], curvature, rtol=1e-12, atol=1e-15)


@pytest.fixture(scope="module")
def general_case():
    """Complex states with both parities and even-odd coherence, which no
    GkpStatePair holds: the 10 dB pair displaced by D(0.3 + 0.2i), as kets
    and through the sigma = 0.1 channel, with the hybrid unitaries at
    lambda = 0 and optimal lambda."""
    d = displacement(SPEC, 0.3 + 0.2j)
    pure = make_state_pair(SPEC, DELTA_10DB)
    kets = [d @ pure.state0, d @ pure.state1]
    rhos = [gaussian_displacement_channel(SPEC, k, 0.1) for k in kets]
    lams = (0.0, optimal_lambda(DELTA_10DB))
    return ([HeldStates(SPEC, tuple(kets)), HeldStates(SPEC, tuple(rhos))],
            {lam: readout_unitary(SPEC, lam) for lam in lams})


def test_general_input_run_once_matches_hybrid_oracle(general_case):
    pairs, unitaries = general_case
    kets, rhos = pairs
    for ket, rho in ((kets.state0, rhos.state0), (kets.state1, rhos.state1)):
        assert np.iscomplexobj(ket) and np.max(np.abs(ket.imag)) > 1e-3
        assert min(np.linalg.norm(ket[0::2]), np.linalg.norm(ket[1::2])) > 1e-2
        assert np.max(np.abs(rho[0::2, 1::2])) > 1e-3
    for lam, unitary in unitaries.items():
        for pair in pairs:
            for state in (pair.state0, pair.state1):
                got = run_readout_once(SPEC, state, lam)
                want = run_readout_hybrid(SPEC, state, unitary)
                for g, w in zip(got, want):
                    assert _rel(g, w) < 1e-10


def _assert_tree_matches_hybrid_oracle(pair, lam, unitary, rounds):
    # The Fock twin of simulated_p_err and post_state, both on the Fock
    # states the pair holds, against the oracle on the same states: outcome
    # strings in the same order, then probabilities, post-states and p_err
    # within 1e-10 relative
    out = fock_p_err(pair, CircuitParams(lam, rounds))
    wrong = []
    for mu, state, tree in ((0, pair.state0, out.branches_0),
                            (1, pair.state1, out.branches_1)):
        want = enumerate_branches_hybrid(pair.spec, state, unitary, rounds)
        assert [b.outcomes for b in tree] == [w[0] for w in want]
        for b, (_, prob, post) in zip(tree, want):
            assert abs(b.probability - prob) < 1e-10 * prob
            assert _rel(post_state(pair, lam, mu, b.outcomes), post) < 1e-10
        wrong.append(sum(prob for outcomes, prob, _ in want
                         if Branch(outcomes, prob).majority != mu))
    assert abs(out.p_err - 0.5 * sum(wrong)) < 1e-10 * out.p_err


def test_general_input_branches_match_hybrid_oracle(general_case):
    pairs, unitaries = general_case
    for lam, unitary in unitaries.items():
        for pair in pairs:
            _assert_tree_matches_hybrid_oracle(pair, lam, unitary, 3)


@pytest.mark.parametrize("case, rounds", [("gkp_sigma_0.1", 5), ("displaced_ket", 5),
                                           ("displaced_density", 5), ("gkp_sigma_0.1", 7)])
def test_multi_round_branches_match_hybrid_oracle(oracle_case, general_case, case, rounds):
    # At lambda = 0 (no round runs forward: every round reads the diagonal
    # sector effects) and at the optimal lambda (density matrices run
    # rounds//2 rounds forward and read the rest off the suffix effects: a
    # 2/3 split at R = 5, 3/4 at R = 7)
    if case == "gkp_sigma_0.1":
        _, _, pair, unitaries = oracle_case(10)
    else:
        pairs, unitaries = general_case
        pair = pairs[case == "displaced_density"]
    for lam, unitary in unitaries.items():
        _assert_tree_matches_hybrid_oracle(pair, lam, unitary, rounds)


def test_pruning_inside_the_suffix_rounds(monkeypatch, oracle_case):
    # With a coarse PROB_PRUNE, R = 5 histories of a density matrix die in
    # the Fock twin's rounds 3-5, which read their probabilities off the
    # suffix effects (at lambda = 0 every round does), and those of a ket at
    # the optimal lambda in its forward rounds, where a mask drops them from
    # the stacks; each must go in the round where the oracle's cumulative
    # probability falls. The exact enumeration prunes only its leaves, and
    # keeps the same outcome strings, as no leaf outweighs its prefix.
    from gkp_readout import readout

    prune = 1e-4
    monkeypatch.setattr(readout, "PROB_PRUNE", prune)
    _, pure, mixed, unitaries = oracle_case(10)
    lam = max(unitaries)
    for pair, lam in ((mixed, 0.0), (mixed, lam), (pure, lam)):
        out = fock_p_err(pair, CircuitParams(lam, 5))
        exact = simulated_p_err(pair, CircuitParams(lam, 5))
        for tree, exact_tree in zip((out.branches_0, out.branches_1),
                                    (exact.branches_0, exact.branches_1)):
            assert [b.outcomes for b in exact_tree] == [b.outcomes for b in tree]
        for state, tree in ((pair.state0, out.branches_0), (pair.state1, out.branches_1)):
            want = enumerate_branches_hybrid(pair.spec, state, unitaries[lam], 5, prune=prune)
            assert [b.outcomes for b in tree] == [w[0] for w in want]
            for b, (_, prob, _) in zip(tree, want):
                assert abs(b.probability - prob) < 1e-10
            # Some two-round prefix keeps only part of its eight histories.
            leaves = Counter(b.outcomes[:2] for b in tree)
            assert any(n < 8 for n in leaves.values())


@pytest.mark.parametrize("rounds, applies", [(1, 0), (3, 4), (5, 12), (7, 28)])
def test_density_tree_work_is_pinned(monkeypatch, rounds, applies):
    # The Fock twin's density pair at lambda != 0 runs only rounds//2 rounds
    # forward, both trees in one stack: at R = 5, 2 + 4 children formed per
    # tree, against 2 + 4 + 8 + 16 with every round before the last run
    # forward. A forward round is one batched product per (outcome, block
    # key), and the suffix effects are built once per call and read against
    # every prefix node of both trees.
    import fock_twin

    calls = {"rounds": 0, "children": 0, "products": 0, "tables": []}
    forward_round, apply_kraus, suffix_table = (fock_twin._forward_round, fock_twin._apply_kraus,
                                                fock_twin._suffix_table)

    def counted_round(kraus, pieces, hist):
        calls["rounds"] += 1
        calls["children"] += 2 * len(hist)
        return forward_round(kraus, pieces, hist)

    def counted_apply(*args, **kwargs):
        calls["products"] += 1
        return apply_kraus(*args, **kwargs)

    def counted_table(kraus, r, pieces):
        table = suffix_table(kraus, r, pieces)
        calls["tables"].append((r, table.shape))
        return table

    monkeypatch.setattr(fock_twin, "_forward_round", counted_round)
    monkeypatch.setattr(fock_twin, "_apply_kraus", counted_apply)
    monkeypatch.setattr(fock_twin, "_suffix_table", counted_table)
    pair = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    assert set(pair.sectors[0]) == set(pair.sectors[1]) == {(0, 0), (1, 1)}
    out = fock_p_err(pair, CircuitParams(optimal_lambda(DELTA_10DB), rounds))
    assert len(out.branches_0) == len(out.branches_1) == 2**rounds
    prefixes, m = 2 * 2 ** (rounds // 2), rounds - rounds // 2
    assert calls["tables"] == [(rounds, (2 ** (m + 1) - 2, prefixes))]
    assert calls["rounds"] == rounds // 2 and calls["products"] == 4 * (rounds // 2)
    assert calls["children"] == applies


def test_lambda_zero_builds_no_kraus_pair(monkeypatch, pair_10db):
    # Enumerating builds no Kraus pair at lambda = 0; a post-state replays
    # its branch on the Kraus pair, which it builds once per call.
    from gkp_readout import readout

    built = Counter()
    for name in ("sector_kraus", "_kraus_factors"):
        def counted(*args, _name=name, _f=getattr(readout, name)):
            built[_name] += 1
            return _f(*args)

        monkeypatch.setattr(readout, name, counted)
    mixed = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    for pair in (pair_10db, mixed):
        for rounds in (1, 3, 5):
            built.clear()
            out = simulated_p_err(pair, CircuitParams(0.0, rounds))
            assert 0 < out.p_err < 0.5
            assert not built
            assert post_state(pair, 0.0, 0, out.branches_0[-1].outcomes) is not None
            assert built["sector_kraus"] == 1


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_post_states_built_on_first_read(monkeypatch, lam, sigma):
    # No post-state is assembled while the tree is enumerated, no root is
    # formed at any lambda, and the result keeps none; each post_state call
    # replays its branch from its input's root, formed once per call, and
    # builds one new read-only array.
    from gkp_readout import readout

    assembled, roots = [], []
    assemble, root = readout.assemble_density, readout._root

    def counted(*args):
        assembled.append(args)
        return assemble(*args)

    def counted_root(*args):
        roots.append(args)
        return root(*args)

    monkeypatch.setattr(readout, "assemble_density", counted)
    monkeypatch.setattr(readout, "_root", counted_root)
    pair = make_state_pair(SPEC, DELTA_10DB, sigma=sigma)
    tree = simulated_p_err(pair, CircuitParams(lam, 3)).branches_0
    assert len(tree) == 8 and assembled == [] and roots == []
    posts = [post_state(pair, lam, 0, b.outcomes) for b in tree]
    assert len(roots) == len(tree) and len(assembled) == (sigma != 0) * len(tree)
    assert all(post.shape == (SPEC.dim,) * post.ndim for post in posts)
    assert {post.ndim for post in posts} == {1 if sigma == 0 else 2}
    assert all(not post.flags.writeable for post in posts)
    with pytest.raises(ValueError):
        posts[0][0] = 0
    again = post_state(pair, lam, 0, tree[0].outcomes)
    assert again is not posts[0] and np.array_equal(again, posts[0])
    assert len({id(post) for post in posts}) == len(tree)


def test_readout_outcome_holds_plain_data(pair_10db):
    # A kept result holds its outcome strings and probabilities only: no
    # callable and no array, at any lambda, for kets and densities
    from dataclasses import fields

    def leaves(x):
        if isinstance(x, tuple):  # a branch tree, or a Branch itself
            for item in x:
                yield from leaves(item)
        else:
            yield x

    mixed = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    for pair in (pair_10db, mixed):
        for lam in (0.0, 0.1):
            out = simulated_p_err(pair, CircuitParams(lam, 3))
            assert all(isinstance(b, Branch) for b in out.branches_0 + out.branches_1)
            values = list(leaves(tuple(getattr(out, f.name) for f in fields(out))))
            assert len(values) == 2 + 2 * (len(out.branches_0) + len(out.branches_1))
            assert all(type(v) in (str, float) for v in values)
            assert not any(callable(v) or isinstance(v, np.ndarray) for v in values)


def test_post_state_rejects_bad_outcomes(pair_10db):
    # A character other than 0 or 1, an input other than 0 or 1, and an
    # outcome string of zero probability (here from a zero |1~>) are errors
    for mu, outcomes in ((0, "012"), (0, "0 1"), (0, "1O"), (2, "0"), (-1, "0")):
        with pytest.raises(ValueError, match="outcomes of 0 and 1"):
            post_state(pair_10db, 0.1, mu, outcomes)
    zero = HeldStates(SPEC, (pair_10db.state0, np.zeros(SPEC.dim)))
    for lam in (0.0, 0.1):
        with pytest.raises(ValueError, match="probability"):
            post_state(zero, lam, 1, "010")
        assert abs(np.linalg.norm(post_state(zero, lam, 0, "010")) - 1) < 1e-12


def test_mixed_enumeration_builds_no_fock_density(monkeypatch):
    # A mixed pair's branches run on its X-sector blocks: enumerating
    # assembles no Fock density and reads neither state0 nor state1, at
    # lambda = 0 and at the optimal lambda; a post_state call lifts that
    # post-state alone.
    from gkp_readout import readout, states

    assembled, reads = [], Counter()
    assemble = states.assemble_density

    def counted(*args):
        assembled.append(args)
        return assemble(*args)

    pair = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    for name in ("state0", "state1"):
        fock = getattr(GkpStatePair, name)
        monkeypatch.setattr(GkpStatePair, name, property(
            lambda self, _name=name, _fock=fock: reads.update([_name]) or _fock.func(self)))
    for module in (states, readout):
        monkeypatch.setattr(module, "assemble_density", counted)
    for lam in (0.0, optimal_lambda(DELTA_10DB)):
        for rounds in (1, 3, 5):
            out = simulated_p_err(pair, CircuitParams(lam, rounds))
            assert 0 < out.p_err < 0.5 and not assembled and not reads
            rho = post_state(pair, lam, 1, out.branches_1[0].outcomes)
            assert len(assembled) == 1 and not reads
            assert rho.shape == (SPEC.dim,) * 2 and abs(np.trace(rho) - 1) < 1e-12
            assembled.clear()


@pytest.fixture(scope="module")
def sweep_pairs():
    """(db, sigma) -> the state pair a sweep builds there: auto cutoff,
    N = 150 at 7 and 10 dB and N = 300 at 12 dB; each built once."""
    pairs = {}

    def build(db, sigma):
        if (db, sigma) not in pairs:
            delta = db_to_delta(db)
            pairs[db, sigma] = make_state_pair(auto_cutoff(delta), delta, sigma=sigma)
        return pairs[db, sigma]

    return build


def _is_closed_form(params):
    # The cells readout_errors reads off the Fock states the pair holds
    return params.lam == 0 or params.rounds == 1


@pytest.mark.parametrize("db", [7.0, 10.0, 12.0])
@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.1])
def test_readout_error_equals_branch_enumeration(sweep_pairs, db, sigma):
    # A closed form reads the Fock states at the pair's cutoff, and equals
    # the Fock twin of the enumeration on them. Any other cell is the exact
    # p_err of the grid point, whose states the pair holds, and equals the
    # twin at N = 600, where it has converged on these points
    # (test_exact_enumeration_matches_converged_fock_twin).
    pair = sweep_pairs(db, sigma)
    assert pair.spec.cutoff == (300 if db == 12.0 else 150)
    converged = make_state_pair(HilbertSpec(600), pair.delta, sigma=sigma)
    for lam in (0.0, optimal_lambda(pair.delta), 0.3):
        # R = 9 at lambda = 0 reads the twin's deepest sector effects, 1022 rows
        for rounds in (1, 3, 5, 9) if lam == 0 else (1, 3, 5):
            params = CircuitParams(lam, rounds)
            want = fock_p_err(pair if _is_closed_form(params) else converged, params).p_err
            assert abs(readout_error(pair, params) - want) <= 1e-12 * want + 1e-16


@pytest.mark.parametrize("db", [7.0, 10.0])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_one_round_cells_match_fock_twin_at_even_dim(db, sigma):
    # N = 151 gives an even dimension, with no null mode: the one-round
    # cells of kets and of X-sector blocks against the twin on the same states
    delta = db_to_delta(db)
    pair = converged_pairs((delta,), (None,), (sigma,), 151, 151)[0][0]
    assert pair.spec.dim % 2 == 0
    for lam in (optimal_lambda(delta), 0.1, 0.3):
        want = fock_p_err(pair, CircuitParams(lam)).p_err
        assert abs(readout_error(pair, CircuitParams(lam)) - want) <= 1e-12 * want + 1e-16


def test_readout_error_lambda_zero_matches_hybrid_oracle(oracle_case):
    # R = 5 at lambda = 0 from the X populations against the
    # qubit⊗oscillator branch tree
    spec, pair, _, unitaries = oracle_case(10)
    wrong = 0.0
    for mu, state in enumerate((pair.state0, pair.state1)):
        wrong += sum(prob for outcomes, prob, _ in
                     enumerate_branches_hybrid(spec, state, unitaries[0.0], 5)
                     if Branch(outcomes, prob).majority != mu)
    want = 0.5 * wrong
    assert abs(readout_error(pair, CircuitParams(0.0, 5)) - want) < 1e-10 * want


def test_readout_error_general_input(general_case):
    # Complex kets on both parities and densities with even-odd coherence:
    # each closed form against the Fock twin on the same states. These
    # states have no grid point, so no cell without a closed form reads them.
    pairs, unitaries = general_case
    cells = [(held, CircuitParams(lam, rounds))
             for lam in unitaries for held in pairs for rounds in (1, 3)]
    closed = [(held, params) for held, params in cells if _is_closed_form(params)]
    assert len(closed) == 6
    for held, params in closed:
        want = fock_p_err(held, params).p_err
        assert abs(readout_error(held, params) - want) <= 1e-12 * want + 1e-16


def test_pair_is_its_grid_point(pair_10db):
    # A pair takes no states: it builds them from its (delta, kappa, sigma),
    # those that make_state_pair and a sweep's column hold, so every cell of
    # readout_errors, and post_state, answer for the states simulated_p_err
    # reads off the grid point
    with pytest.raises(TypeError):
        GkpStatePair(*pair_10db.sectors, SPEC, DELTA_10DB, 1 / DELTA_10DB, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        GkpStatePair(SPEC, DELTA_10DB, 1 / DELTA_10DB, -0.1)
    deltas = [db_to_delta(db) for db in (9.0, 10.0, 11.0)]
    for sigma in (0.0, 0.1):
        column = converged_pairs(deltas, [None] * 3, (sigma,), 150, 150)[0]
        for built in (make_state_pair(SPEC, DELTA_10DB, sigma=sigma), column[1]):
            own = GkpStatePair(SPEC, built.delta, built.kappa, sigma)
            assert own == built and own.is_pure == (sigma == 0)
            for a, b in zip(own.sectors, built.sectors):
                if sigma:
                    assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
                else:
                    assert np.array_equal(a, b)


def test_simple_p_err_matches_formula(pair_10db):
    out = simulated_p_err(pair_10db, CircuitParams(0.0, 1))
    assert abs(out.p_err - p_err_simple_formula(DELTA_10DB)) < 5e-3
    assert abs(out.p_err - 0.03777) < 5e-4


@pytest.mark.parametrize("delta", [0.2, 0.25, 0.3, 0.35])
def test_formula_agreement_simple_and_improved(delta):
    spec = auto_cutoff(delta)
    pair = make_state_pair(spec, delta)
    sim = simulated_p_err(pair, CircuitParams(0.0, 1)).p_err
    ref = p_err_simple_formula(delta)
    assert abs(sim - ref) < max(0.1 * ref, 1e-5)
    lam = optimal_lambda(delta)
    sim = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
    ref = p_err_improved_formula(delta, lam)
    assert abs(sim - ref) < max(0.1 * ref, 1e-5)


def test_improved_10db_regression(pair_10db):
    # Frozen from the formula-minimization oracle; headline improvement.
    # It also pins the sign in K0 = C cos λP - S i sin λP and
    # M1 = S cos λP + C i sin λP: with the other sign of i sin λP the tree
    # gives 0.156 here.
    lam = optimal_lambda(DELTA_10DB)
    out = simulated_p_err(pair_10db, CircuitParams(lam, 1))
    assert out.p_err <= 3e-4
    assert abs(out.p_err - 1.8997e-4) < 2e-8


@pytest.mark.parametrize("db", [7.0, 10.0, 12.0])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_exact_enumeration_matches_converged_fock_twin(db, sigma):
    # At N = 600 the Fock twin has converged on these cells: at N = 1200 it
    # moves p_err by up to 3e-13 relative. So the exact enumeration and the
    # twin agree on the outcome strings and their order, and on p_err and
    # every branch above 1e-6 to 1e-12 relative, down to an absolute
    # rounding floor: h_wᴴ M h_w cancels to about 7e-17 at most, and so do
    # the twin's density branches.
    delta = db_to_delta(db)
    pair = converged_pairs((delta,), (None,), (sigma,), 600, 600)[0][0]
    for lam in (0.0, optimal_lambda(delta), 0.3):
        for rounds in (1, 3, 5):
            params = CircuitParams(lam, rounds)
            got, want = simulated_p_err(pair, params), fock_p_err(pair, params)
            assert abs(got.p_err - want.p_err) <= 1e-12 * want.p_err + 1e-16
            for tree, ref in ((got.branches_0, want.branches_0), (got.branches_1, want.branches_1)):
                assert [b.outcomes for b in tree] == [b.outcomes for b in ref]
                for b, w in zip(tree, ref):
                    if w.probability > 1e-6:
                        assert abs(b.probability - w.probability) <= 1e-12 * w.probability + 1e-16


def _mp_peaks(kappa, mu):
    # The peaks j ≡ mu (mod 2) that peak_weights keeps, with 40-digit weights
    j, weights = peak_weights((kappa,))
    kappa = mpmath.mpf(kappa)
    return {int(x): mpmath.exp(-mpmath.pi * int(x) ** 2 / (2 * kappa**2))
            for x in j[weights[0, mu] > 0]}


def mpmath_lambda_zero_branch(delta, sigma, mu, zeros, ones):
    """40-digit probability of one outcome string with `zeros` zeros and
    `ones` ones of input mu at lambda = 0, where every round is a function
    of X: ∫ρ_μ(x) cos^{2 zeros}(√πx/2) sin^{2 ones}(√πx/2) dx, ρ_μ the
    σ-smeared |ψ_μ|². That is a mixture of Gaussians N(√π(j_s + j_t)/2,
    δ²/2 + σ²) of weight a_s a_t exp(-π(j_s - j_t)²/(4δ²)), and in u = e^{i√πx}
    the integrand is a Laurent polynomial with rational coefficients, whose
    powers u^k average to cos(k√πm) exp(-πk²v/2) over N(m, v)."""
    coeffs = [Fraction(1)]
    for factor in [(1, 2, 1)] * zeros + [(-1, 2, -1)] * ones:
        # cos²(θ/2) = (u + 2 + 1/u)/4 and sin²(θ/2) = (-u + 2 - 1/u)/4
        coeffs = [sum(coeffs[i - k] * Fraction(f, 4) for k, f in enumerate(factor)
                      if 0 <= i - k < len(coeffs)) for i in range(len(coeffs) + 2)]
    with mpmath.workdps(40):
        root_pi, delta = mpmath.sqrt(mpmath.pi), mpmath.mpf(delta)
        v = delta**2 / 2 + mpmath.mpf(sigma) ** 2
        amp = _mp_peaks(1 / delta, mu)
        num = den = 0
        for s, a_s in amp.items():
            for t, a_t in amp.items():
                w = a_s * a_t * mpmath.exp(-mpmath.pi * (s - t) ** 2 / (4 * delta**2))
                den += w
                num += w * sum(mpmath.mpf(c.numerator) / c.denominator
                               * mpmath.cos((i - zeros - ones) * root_pi * root_pi * (s + t) / 2)
                               * mpmath.exp(-mpmath.pi * (i - zeros - ones) ** 2 * v / 2)
                               for i, c in enumerate(coeffs) if c)
        return num / den


@pytest.mark.parametrize("rounds", [1, 3, 5])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_lambda_zero_branches_match_mpmath(rounds, sigma):
    # Every branch and p_err at 10 dB and lambda = 0 against a reference
    # the tree does not enter
    pair = GkpStatePair(SPEC, DELTA_10DB, 1 / DELTA_10DB, sigma)
    out = simulated_p_err(pair, CircuitParams(0.0, rounds))
    refs, wrong = {}, 0
    for mu, tree in enumerate((out.branches_0, out.branches_1)):
        assert len(tree) == 2**rounds
        for b in tree:
            ones = b.outcomes.count("1")
            if (mu, ones) not in refs:
                refs[mu, ones] = mpmath_lambda_zero_branch(DELTA_10DB, sigma, mu,
                                                           rounds - ones, ones)
            ref = refs[mu, ones]
            assert abs(b.probability - ref) <= 1e-12 * ref
            wrong += ref if b.majority != mu else 0
    assert abs(out.p_err - wrong / 2) <= 1e-12 * wrong / 2


def mpmath_one_round_p_err(delta, sigma, lam):
    """40-digit R = 1 p_err at any lambda:
    ½[1 - ½D(sin(√πλ)A + exp(-2σ²λ²)B(λ))] with D = exp(-πδ²/4 - πσ²/2),
    A = Σ_μ aᵀ(S∘E)a over each state's peaks j = 2s + μ, S_st = (-1)^(s+t),
    E_st = exp(-(x_s - x_t)²/(4δ²)) and aᵀEa = 1, and B(λ) the same sum with
    exp(-(x_s - x_t + 2λ)²/(4δ²)) in place of E_st."""
    with mpmath.workdps(40):
        root_pi, delta, sigma, lam = (mpmath.sqrt(mpmath.pi), mpmath.mpf(delta),
                                      mpmath.mpf(sigma), mpmath.mpf(lam))
        a_sum = b_sum = 0
        for mu in (0, 1):
            amp = _mp_peaks(1 / delta, mu)
            terms = [(a_s * a_t, (-1) ** ((s + t - 2 * mu) // 2), root_pi * (s - t))
                     for s, a_s in amp.items() for t, a_t in amp.items()]
            norm = sum(w * mpmath.exp(-x**2 / (4 * delta**2)) for w, _, x in terms)
            a_sum += sum(w * sign * mpmath.exp(-x**2 / (4 * delta**2))
                         for w, sign, x in terms) / norm
            b_sum += sum(w * sign * mpmath.exp(-(x + 2 * lam) ** 2 / (4 * delta**2))
                         for w, sign, x in terms) / norm
        d = mpmath.exp(-mpmath.pi * delta**2 / 4 - mpmath.pi * sigma**2 / 2)
        return (1 - d * (mpmath.sin(root_pi * lam) * a_sum
                         + mpmath.exp(-2 * sigma**2 * lam**2) * b_sum) / 2) / 2


@pytest.mark.parametrize("db, sigma, lam", [(10.0, 0.0, None), (10.0, 0.1, None),
                                            (14.0, 0.0, None), (7.0, 0.15, 0.3),
                                            (12.0, 0.05, 0.2)])
def test_one_round_matches_mpmath_closed_form(db, sigma, lam):
    delta = db_to_delta(db)
    lam = optimal_lambda(delta) if lam is None else lam
    pair = GkpStatePair(SPEC, delta, 1 / delta, sigma)
    ref = mpmath_one_round_p_err(delta, sigma, lam)
    assert abs(simulated_p_err(pair, CircuitParams(lam, 1)).p_err - ref) <= 1e-12 * ref


def test_enumeration_reads_only_the_grid_point(monkeypatch):
    # No X sectors, Kraus pair, root stack or Fock density, and neither the
    # states nor their sector form: a pair is its (delta, kappa, sigma)
    from gkp_readout import fock, readout, states

    pairs = [make_state_pair(SPEC, DELTA_10DB, sigma=sigma) for sigma in (0.0, 0.1)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration read a Fock form")

    for module, name in ((fock, "x_sectors"), (states, "x_sectors"), (readout, "x_sectors"),
                         (readout, "sector_kraus"), (readout, "_root"),
                         (states, "assemble_density"), (readout, "assemble_density")):
        monkeypatch.setattr(module, name, forbidden)
    for name in ("state0", "state1", "sectors"):
        monkeypatch.setattr(GkpStatePair, name, property(forbidden))
    for pair in pairs:
        for lam in (0.0, optimal_lambda(DELTA_10DB), 0.3):
            for rounds in (1, 3, 5):
                out = simulated_p_err(pair, CircuitParams(lam, rounds))
                assert 0 < out.p_err < 0.5
                for tree in (out.branches_0, out.branches_1):
                    assert abs(sum(b.probability for b in tree) - 1) < 1e-13


def test_lag_table_cached_read_only():
    # The lag table depends on kappa alone, and the enumeration, the
    # one-round curve and the homodyne share it: W[mu, L, pi] sums the
    # peak-pair weights, each pair once
    from gkp_readout.readout import _lag_table

    lag, table = _lag_table(3.0)
    assert _lag_table(3.0)[1] is table
    assert not lag.flags.writeable and not table.flags.writeable
    j, weights = peak_weights((3.0,))
    assert np.array_equal(lag, j) and table.shape == (2, len(j), 2)
    assert np.allclose(table.sum(axis=(1, 2)), weights[0].sum(axis=1) ** 2, rtol=1e-14)


def per_round_branch_tree(rounds, lam):
    """Reference for `readout._branch_tree` and `_round_maps`: the
    coefficients h_w(n, l), built a round at a time with the factors of
    K0 and M1 on a grid that grows by one a round, the flat index of (m, d),
    the phase of M^μ computed directly, and the outcome strings."""
    # cos λP and i sin λP move n by -1 with ½e^{iq_lλ} and by +1 with
    # ±½e^{-iq_lλ}; C = cos(√π X/2) and S = sin(√π X/2) move l by ±1. So
    # K0 = ½[D ⊗ (C - S)E₊ + U ⊗ (C + S)E₋] and
    # M1 = ½[D ⊗ (C + S)E₊ - U ⊗ (C - S)E₋], D and U moving n by -1 and +1,
    # E± = diag(e^{±iq_lλ}) and C ∓ S = ½[(1 ± i)(l → l + 1) + (1 ∓ i)(l → l - 1)].
    # After r rounds n ≡ l ≡ r (mod 2), so h holds n = 2a - r and l = 2b - r
    # at [a, b]: a round applies the four l-axis factors, (r + 1) × (r + 2),
    # as products, and D keeps a where U raises it by one.
    h = np.ones((1, 1, 1), dtype=complex)
    for r in range(rounds):
        e = np.exp(0.5j * np.sqrt(np.pi) * lam * np.arange(-r, r + 1, 2))[:, None]
        up, down = np.eye(r + 1, r + 2, 1) / 4, np.eye(r + 1, r + 2) / 4
        c_minus_s, c_plus_s = (1 + 1j) * up + (1 - 1j) * down, (1 - 1j) * up + (1 + 1j) * down
        y = h[:, None] @ np.array([e * c_minus_s, e.conj() * c_plus_s, e * c_plus_s,
                                   -e.conj() * c_minus_s])
        h = np.zeros((len(h), 2, r + 2, r + 2), dtype=complex)
        h[:, :, :-1] = y[:, 0::2]
        h[:, :, 1:] += y[:, 1::2]
        h = h.reshape(-1, r + 2, r + 2)
    a, b = np.divmod(np.arange((rounds + 1) ** 2), rounds + 1)
    m, d = np.subtract.outer(a, a), np.subtract.outer(b, b).T
    angle = np.sqrt(np.pi) * lam * d * (np.add.outer(a, a) - rounds)
    return (h.reshape(len(h), -1), (m + rounds) * (2 * rounds + 1) + d + rounds,
            np.exp(1j * angle), angle, tuple(format(w, f"0{rounds:d}b") for w in range(len(h))))


@pytest.mark.parametrize("rounds", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("lam", [0.0, optimal_lambda(db_to_delta(10)), -0.3, 0.45, 0.9])
def test_branch_tree_matches_per_round_reference(rounds, lam):
    # Powers of z = e^{i√πλ/2} gathered into per-R maps give the per-round
    # construction's strings, index and branch order, and its h to 1e-15.
    # The phase's angle √πλd(a + a' - R) reaches 129 rad at R = 9, λ = 0.9;
    # the reference rounds it twice and z^k once, so the two differ by up
    # to an ulp of the angle (1.4e-14 there), and are held to 1e-15 of it.
    from gkp_readout.readout import _branch_tree, _round_maps

    ref_h, ref_index, ref_phase, angle, ref_strings = per_round_branch_tree(rounds, lam)
    (h, phase), (_, index, _, majority, strings) = _branch_tree(rounds, lam), _round_maps(rounds)
    assert strings == ref_strings and np.array_equal(index, ref_index)
    assert h.shape == ref_h.shape and np.abs(h - ref_h).max() <= 1e-15
    assert np.all(np.abs(phase - ref_phase) <= 1e-15 * np.maximum(1, np.abs(angle)))
    assert majority.tolist() == [bool(Branch(w, 0.0).majority) for w in strings]


@pytest.mark.parametrize("rounds", [7, 9])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_long_runs_match_per_round_reference(monkeypatch, rounds, sigma):
    # R = 7 and 9 at lambda != 0 on the reference tree: the same branches
    # in the same order, each probability and p_err within 1e-15, and p_err
    # the wrong-majority sum that Branch.majority gives
    from gkp_readout import readout

    pair = GkpStatePair(SPEC, DELTA_10DB, 1 / DELTA_10DB, sigma)
    for lam in (optimal_lambda(DELTA_10DB), -0.3, 0.45):
        got = simulated_p_err(pair, CircuitParams(lam, rounds))
        with monkeypatch.context() as m:
            m.setattr(readout, "_branch_tree", lambda r, x: per_round_branch_tree(r, x)[:3:2])
            want = simulated_p_err(pair, CircuitParams(lam, rounds))
        assert abs(got.p_err - want.p_err) <= 1e-15
        for mu, (tree, ref) in enumerate(((got.branches_0, want.branches_0),
                                          (got.branches_1, want.branches_1))):
            assert [b.outcomes for b in tree] == [b.outcomes for b in ref]
            assert max(abs(b.probability - w.probability) for b, w in zip(tree, ref)) <= 1e-15
            wrong = sum(b.probability for b in tree if b.majority != mu)
            assert wrong == (got.p_1_given_0, got.p_0_given_1)[mu]


def test_branch_tree_cached_read_only():
    # The round maps depend on R alone, one entry per odd R <= MAX_ROUNDS,
    # and a tree on (R, lambda): each is cached and read-only, and a cached
    # tree holds its h and phase in arrays of their own, no view into a
    # larger buffer
    from gkp_readout.readout import MAX_ROUNDS, _branch_tree, _round_maps

    maps = {rounds: _round_maps(rounds) for rounds in range(1, MAX_ROUNDS + 1, 2)}
    assert all(_round_maps(rounds) is entry for rounds, entry in maps.items())
    round_maps, index, powers, majority, strings = maps[5]
    assert [m.shape for m in round_maps] == [((r + 1) ** 2, 2 * (r + 2) ** 2) for r in range(5)]
    assert index.shape == powers.shape == (36, 36) and majority.shape == (32,)
    assert strings == tuple(format(w, "05b") for w in range(32))
    assert not any(a.flags.writeable for a in (*round_maps, index, powers, majority))

    first = _branch_tree(5, 0.1)
    assert _branch_tree(5, 0.1) is first and _branch_tree(5, 0.2) is not first
    h, phase = first
    assert h.shape == (32, 36) and phase.shape == (36, 36)
    for a in first:
        assert not a.flags.writeable
        base = a
        while base.base is not None:
            base = base.base
        assert base.nbytes == a.nbytes


def test_branch_probabilities_sum_to_one(pair_10db):
    out = simulated_p_err(pair_10db, CircuitParams(0.0, 3))
    for tree in (out.branches_0, out.branches_1):
        assert abs(sum(b.probability for b in tree) - 1) < 1e-10
        assert all(len(b.outcomes) == 3 for b in tree)


def test_majority_vote_helps_simple_circuit(pair_10db):
    p1 = simulated_p_err(pair_10db, CircuitParams(0.0, 1)).p_err
    p3 = simulated_p_err(pair_10db, CircuitParams(0.0, 3)).p_err
    assert p3 < p1


@pytest.mark.parametrize("delta", [0.25, 0.3, 0.35])
def test_majority_vote_futile_for_improved_circuit(delta):
    spec = auto_cutoff(delta)
    pair = make_state_pair(spec, delta)
    lam = optimal_lambda(delta)
    p1 = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
    p3 = simulated_p_err(pair, CircuitParams(lam, 3)).p_err
    assert p3 >= 0.9 * p1


def test_back_action_consistency(pair_10db):
    lam = optimal_lambda(DELTA_10DB)
    u = readout_unitary(SPEC, lam)
    p0, p1, post0, post1 = run_readout_once(SPEC, pair_10db.state0, lam)
    pre = partial_trace_oscillator(apply(u, embed_qubit_zero(pair_10db.state0)))
    recon = p0 * ket_to_density(post0) + p1 * ket_to_density(post1)
    assert np.max(np.abs(recon - pre)) < 1e-9


def test_global_phase_invariance(pair_10db):
    # Both kets rotated, or only one: a real and a complex ket in one pair.
    # The readout of the kets the pair holds: readout_error's closed form at
    # one round, the Fock twin at three (simulated_p_err reads only the
    # grid point, which a phase leaves alone).
    def p_err(pair, params):
        return readout_error(pair, params) if params.rounds == 1 else fock_p_err(pair, params).p_err

    rotated = [HeldStates(SPEC, (phase * pair_10db.state0, np.exp(0.7j) * pair_10db.state1))
               for phase in (np.exp(0.7j), 1.0)]
    for params in (CircuitParams(0.0, 1), CircuitParams(0.05, 3)):
        a = p_err(pair_10db, params)
        for pair in rotated:
            assert abs(a - p_err(pair, params)) < 1e-12


def test_input_form_independence():
    # lambda = 0 performance depends only on <D(i sqrt(pi/2))>: a mixed
    # state and a pure state with matched expectation behave identically
    rho = assemble_density(
        SPEC, gaussian_displacement_channel(SPEC, make_state_pair(SPEC, DELTA_10DB).state0, 0.1))
    z = logical_z_displacement(SPEC)
    target = expectation(z, rho).real
    p0m, p1m, _, _ = run_readout_once(SPEC, rho, 0.0)
    delta_eff = np.sqrt(0.1 + 2 * 0.01)
    pure = make_state_pair(SPEC, delta_eff).state0
    p0p, p1p, _, _ = run_readout_once(SPEC, pure, 0.0)
    # identity p0 = (1 + Re<D>)/2 holds for both representations
    assert abs(p0m - 0.5 * (1 + target)) < 1e-8
    assert abs(p0p - 0.5 * (1 + expectation(z, pure).real)) < 1e-8


def test_mixed_state_density_propagation(pair_10db):
    mixed = make_state_pair(SPEC, DELTA_10DB, sigma=0.1)
    out = simulated_p_err(mixed, CircuitParams(0.0, 1))
    assert out.p_err > simulated_p_err(pair_10db, CircuitParams(0.0, 1)).p_err
    for tree in (out.branches_0, out.branches_1):
        assert abs(sum(b.probability for b in tree) - 1) < 1e-10
    # posts are density matrices with unit trace
    rho = post_state(mixed, 0.0, 0, out.branches_0[0].outcomes)
    assert rho.ndim == 2
    assert abs(np.trace(rho).real - 1) < 1e-10


def test_helstrom_dominance(pair_10db):
    bound = helstrom_bound(pair_10db.state0, pair_10db.state1)
    for params in (CircuitParams(0.0, 1), CircuitParams(0.0, 3),
                   CircuitParams(optimal_lambda(DELTA_10DB), 1)):
        assert simulated_p_err(pair_10db, params).p_err >= bound - 1e-10


def test_convergence_in_cutoff():
    # The closed forms on the Fock states at N = 150 and 300
    small = make_state_pair(HilbertSpec(150), DELTA_10DB)
    big = make_state_pair(HilbertSpec(300), DELTA_10DB)
    lam = optimal_lambda(DELTA_10DB)
    for params in (CircuitParams(0.0, 1), CircuitParams(lam, 1)):
        assert abs(readout_error(small, params) - readout_error(big, params)) < 1e-8


def test_branch_majority():
    assert Branch("001", 0.1).majority == 0
    assert Branch("011", 0.1).majority == 1


def test_homodyne_matches_closed_form(pair_10db):
    # Finite-kappa simulation against the infinite-envelope formula
    val = homodyne_p_err_numeric(pair_10db)
    ref = p_err_homodyne_formula(DELTA_10DB)
    assert abs(val - ref) / ref < 0.2


def test_homodyne_better_than_chance_at_large_delta():
    spec = HilbertSpec(150)
    pair = make_state_pair(spec, 0.6, kappa=2.0)
    assert homodyne_p_err_numeric(pair) < 0.5


def mpmath_homodyne_p_err(delta, kappa, sigma):
    """30-digit reference: every peak pair's Gaussian integrated over every
    decision bin of the other logical value, bin by bin."""
    with mpmath.workdps(30):
        root_pi, half = mpmath.sqrt(mpmath.pi), mpmath.mpf(1) / 2
        scale = mpmath.sqrt(2 * (mpmath.mpf(delta) ** 2 / 2 + mpmath.mpf(sigma) ** 2))
        reach = int(mpmath.ceil(14 * scale / root_pi)) + 1

        def mass(lo, hi):
            # Mass of N(0, scale²/2) on [lo, hi], from the tails so that
            # small masses keep their digits.
            if lo >= 0:
                return (mpmath.erfc(lo / scale) - mpmath.erfc(hi / scale)) / 2
            if hi <= 0:
                return mass(-hi, -lo)
            return 1 - (mpmath.erfc(-lo / scale) + mpmath.erfc(hi / scale)) / 2

        total = 0
        j, weights = peak_weights((kappa,))
        for mu in (0, 1):
            peaks = [int(s) for s in (j[weights[0, mu] > 0] - mu) // 2]
            amp = {s: mpmath.exp(-mpmath.pi * (2 * s + mu) ** 2 / (2 * mpmath.mpf(kappa) ** 2))
                   for s in peaks}
            weight = err = 0
            for s in peaks:
                for t in peaks:
                    w = amp[s] * amp[t] * mpmath.exp(-mpmath.pi * (s - t) ** 2
                                                     / mpmath.mpf(delta) ** 2)
                    centre = s + t + mu
                    weight += w
                    err += w * sum(mass((k - centre - half) * root_pi, (k - centre + half) * root_pi)
                                   for k in range(centre - reach, centre + reach + 1)
                                   if k % 2 != mu)
            total += err / weight
        return float(total / 2)


@pytest.mark.parametrize("db, sigma", [(7.0, 0.0), (10.0, 0.0), (14.0, 0.0), (10.0, 0.1)])
def test_homodyne_matches_mpmath_peak_sum(db, sigma):
    # The closed form reads only delta, kappa and sigma. At 7 dB the
    # cross terms of odd s + t carry weight; at 14 dB p_err is ~3.4e-10.
    delta = db_to_delta(db)
    pair = GkpStatePair(SPEC, delta, 1.0 / delta, sigma)
    ref = mpmath_homodyne_p_err(delta, 1.0 / delta, sigma)
    assert abs(homodyne_p_err_numeric(pair) - ref) <= 1e-13 * ref


def homodyne_peak_pair_sum(pair):
    """`homodyne_p_err_numeric` as a double sum over each state's peak
    pairs (s, t), peak j = 2s + mu, each of weight a_s a_t exp(-π(s - t)²/δ²),
    erring with q where s + t is even and 1 - q where it is odd."""
    h = np.sqrt(np.pi / (8 * (pair.delta**2 / 2 + pair.sigma**2)))
    q = sum(math.erfc((2 * j - 1) * h) - math.erfc((2 * j + 1) * h)
            for j in range(1, int(13.5 / h) + 2, 2))
    total = 0.0
    peaks, weights = peak_weights((pair.kappa,))
    for mu, a in enumerate(weights[0]):
        s, a = (peaks[a > 0] - mu) // 2, a[a > 0]
        w = np.outer(a, a) * np.exp(-np.pi * np.subtract.outer(s, s) ** 2 / pair.delta**2)
        odd = np.add.outer(s, s) % 2 == 1
        total += (q * w[~odd].sum() + (1 - q) * w[odd].sum()) / w.sum()
    return float(0.5 * total)


@pytest.mark.parametrize("db", [7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("kappa", [None, 3.0])
def test_homodyne_lag_sum_matches_peak_pair_sum(db, sigma, kappa):
    # Summed by lag on the lag table, the peak pairs give their double sum
    delta = db_to_delta(db)
    pair = GkpStatePair(SPEC, delta, 1 / delta if kappa is None else kappa, sigma)
    ref = homodyne_peak_pair_sum(pair)
    assert abs(homodyne_p_err_numeric(pair) - ref) <= 1e-14 * ref


def test_homodyne_relabeling_symmetry(pair_10db):
    # Swapping inputs and relabeling the bins swaps the two conditional
    # errors, leaving their average untouched
    e0 = binned_misclassification(SPEC, pair_10db.state0, 0, pair_10db.kappa)
    e1 = binned_misclassification(SPEC, pair_10db.state1, 1, pair_10db.kappa)
    assert abs(0.5 * (e0 + e1) - 0.5 * (e1 + e0)) < 1e-10
    assert abs(0.5 * (e0 + e1) - homodyne_p_err_numeric(pair_10db)) < 1e-6


# The Fock states converge to the closed form as the cutoff grows: the
# per-bin quadrature of their densities (2049 points per bin) is within
# 3.3e-10 relative at 10 dB and N = 300 (5.0e-6 at N = 150), and within
# 1.1e-7 at 14 dB and N = 600 (8 % at N = 300).
def test_homodyne_10db_matches_per_bin_reference():
    pair = make_state_pair(HilbertSpec(300), DELTA_10DB)
    exact = homodyne_p_err_numeric(pair)
    assert abs(binned_p_err(pair) - exact) < 1e-9 * exact


def test_homodyne_mixed_input_matches_per_bin_reference():
    pair = make_state_pair(HilbertSpec(300), DELTA_10DB, sigma=0.1)
    exact = homodyne_p_err_numeric(pair)
    assert abs(binned_p_err(pair) - exact) < 1e-9 * exact


def test_homodyne_14db_matches_per_bin_reference():
    # p_err ~ 3.4e-10: the misclassified bins hold only the envelope tails
    gaps = []
    for cutoff in (300, 600):
        pair = make_state_pair(HilbertSpec(cutoff), db_to_delta(14.0))
        exact = homodyne_p_err_numeric(pair)
        gaps.append(abs(binned_p_err(pair) - exact) / exact)
    assert gaps[1] < 1e-6
    assert gaps[0] > gaps[1]


def test_state_path_needs_no_dense_eigh(monkeypatch, cold_caches):
    # State preparation, the channel, the readout and the homodyne all run
    # on an SVD of a half-size bidiagonal block; dense O(N^3) eigh is kept
    # out of them.
    # Every route to a dense eigh raises: the scipy and numpy functions and
    # any gkp_readout module binding of either. The caches start cold, so
    # the sectors, kets and Kraus factors are built under the guard.
    import sys

    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigh on the state path")

    dense = (scipy.linalg.eigh, np.linalg.eigh)
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for name, module in list(sys.modules.items()):
        if name == "gkp_readout" or name.startswith("gkp_readout."):
            for binding, value in list(vars(module).items()):
                if any(value is d for d in dense):
                    monkeypatch.setattr(module, binding, forbidden)
    spec = auto_cutoff(DELTA_10DB)
    mixed = make_state_pair(spec, DELTA_10DB, sigma=0.1)
    out = simulated_p_err(mixed, CircuitParams(optimal_lambda(DELTA_10DB), 3))
    assert 0 < out.p_err < 0.5
    assert 0 < readout_error(mixed, CircuitParams(0.1)) < 0.5
    pure = make_state_pair(spec, DELTA_10DB)
    assert 0 < homodyne_p_err_numeric(pure) < 0.5


def test_majority_tails_cached_read_only():
    # The lambda = 0 tails depend only on the cutoff and R: built once each,
    # read-only, and summing with the other outcome to one at every sector
    from gkp_readout.readout import _majority_tails

    for rounds in (1, 3, 5):
        wrong0, wrong1 = _majority_tails(SPEC, rounds)
        assert _majority_tails(HilbertSpec(SPEC.cutoff), rounds)[0] is wrong0
        assert not wrong0.flags.writeable and not wrong1.flags.writeable
        assert np.max(np.abs(wrong0 + wrong1 - 1)) < 1e-15


def test_readout_errors_of_a_stack_equal_each_cell_alone():
    # Cells of two cutoffs, pure and mixed, at lambda = 0 and not, one
    # round and three: one call gives each cell exactly what it gives alone
    pairs = [make_state_pair(HilbertSpec(n), db_to_delta(db), sigma=sigma)
             for n, db, sigma in ((150, 9.0, 0.0), (300, 12.0, 0.0), (150, 10.0, 0.0),
                                  (150, 10.0, 0.1))]
    cells = [(pair, CircuitParams(lam, rounds)) for pair in pairs
             for lam, rounds in ((0.0, 1), (0.0, 3), (0.08, 1), (0.1, 1), (0.05, 3))]
    assert readout_errors(cells) == [readout_errors([cell])[0] for cell in cells]
    assert readout_errors(cells) == [readout_error(*cell) for cell in cells]
