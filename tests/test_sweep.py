import dataclasses
import json

import numpy as np
import pytest

from gkp_readout import analytics, sweep
from gkp_readout.cli import EXIT_CONFIG, main
from gkp_readout.readout import CircuitParams, one_round_curve, readout_error, simulated_p_err
from gkp_readout.states import (
    auto_cutoff,
    converged_pairs,
    db_to_delta,
    make_state_pair,
)
from gkp_readout.sweep import (
    LAMBDA_SCAN_POINTS,
    LAMBDA_SEARCH_MAX,
    ConfigError,
    SweepConfig,
    SWEEP_ROW_FIELDS,
    emit,
    optimize_lambda_simulated,
    parse_config_file,
    rows_to_csv,
    rows_to_json,
    run_fig1a,
    run_fig1b,
    run_fig1c,
)
from fock_twin import fock_p_err

SMALL = SweepConfig(delta_db_min=8.0, delta_db_max=10.0, delta_db_points=2,
                    rounds_list=(1, 3))


@pytest.fixture(scope="module")
def fig1a_rows():
    return run_fig1a(SMALL)


def test_config_validation(monkeypatch, tmp_path):
    with pytest.raises(ConfigError):
        SweepConfig(delta_db_points=1)
    # Integer fields take integers only, named where they enter, not as a
    # TypeError from delta_grid or the enumeration later
    for points in (2.5, 3.0, "3"):
        with pytest.raises(ConfigError, match="delta_db_points"):
            SweepConfig(delta_db_points=points)
    with pytest.raises(ConfigError, match="cutoff_n: cutoff must be >= 1 and an integer"):
        SweepConfig(cutoff_n=150.0)
    with pytest.raises(ConfigError, match="rounds_list: rounds must be an odd integer"):
        SweepConfig(rounds_list=(1, 3.0))
    assert SweepConfig(delta_db_points=np.int64(3)).delta_grid().size == 3
    with pytest.raises(ConfigError):
        SweepConfig(delta_db_min=10, delta_db_max=8)
    with pytest.raises(ConfigError):
        SweepConfig(delta_db_min=1.0)  # outside the guard
    SweepConfig(delta_db_min=1.0, delta_db_max=20.0, allow_extreme_range=True)
    # delta_db_min = 0 would put delta at 1, outside check_point's domain
    with pytest.raises(ConfigError, match="delta_db_min = 0.0"):
        SweepConfig(delta_db_min=0.0, allow_extreme_range=True)
    with pytest.raises(ConfigError):
        SweepConfig(rounds_list=(1, 2))
    # rounds_list takes CircuitParams' rule, its cap of 9 included, before
    # any state is built
    for rounds in (0, 11):
        with pytest.raises(ConfigError, match="rounds_list"):
            SweepConfig(rounds_list=(rounds,))
    SweepConfig(rounds_list=(1, 9))
    # lambda_fixed_values and sigma_list entries take CircuitParams' and
    # check_point's rules: finite, |lambda| < 1 and sigma >= 0
    for lam in (1.0, -1.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="lambda_fixed_values"):
            SweepConfig(lambda_fixed_values=(0.05, lam))
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="sigma_list"):
            SweepConfig(sigma_list=(0.0, sigma))
    SweepConfig(lambda_fixed_values=(-0.05, 0.0, 0.45), sigma_list=(0.0, 2.0))
    with pytest.warns(UserWarning, match="small-lambda regime"):
        SweepConfig(lambda_fixed_values=(0.9,))
    # A bad list entry from a config file exits 2 before any state is built
    calls = []
    monkeypatch.setattr(sweep, "converged_pairs", lambda *args, **kwargs:
                        calls.append(args) or converged_pairs(*args, **kwargs))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("lambda_fixed_values = 0.05, 1.5\n")
    assert main(["fig1b", "--config", str(cfg)]) == EXIT_CONFIG
    assert calls == []
    # An auto cutoff search that would try no cutoff is a config error; a
    # fixed cutoff of that size is allowed
    with pytest.raises(ConfigError, match="cutoff_n"):
        SweepConfig(cutoff_n=5000)
    SweepConfig(cutoff_n=5000, cutoff_policy="fixed")
    # cutoff_n takes HilbertSpec's rule under either policy, and a fixed
    # kappa check_point's, named by their keys and before any state is built
    for policy in ("auto", "fixed"):
        with pytest.raises(ConfigError, match="cutoff_n: cutoff must be >= 1"):
            SweepConfig(cutoff_n=0, cutoff_policy=policy)
    for kappa in (np.nan, np.inf, 0.5):
        with pytest.raises(ConfigError, match="kappa_fixed_value: kappa must be"):
            SweepConfig(kappa_policy="fixed", kappa_fixed_value=kappa)
    SweepConfig(kappa_fixed_value=np.nan)  # unread under inverse_delta
    for text in ("cutoff_n = 0\n", "kappa_policy = fixed\nkappa_fixed_value = nan\n"):
        cfg.write_text(text)
        assert main(["fig1a", "--config", str(cfg)]) == EXIT_CONFIG
    assert calls == []


def test_fig1a_table_shape(fig1a_rows):
    # per delta point: simple per rounds entry, improved, homodyne, helstrom
    assert len(fig1a_rows) == 2 * (2 + 3)
    strategies = {r.strategy for r in fig1a_rows}
    assert strategies == {"simple_R1", "simple_R3", "improved_optimal",
                          "homodyne_formula", "helstrom"}
    for r in fig1a_rows:
        assert r.converged_flag


def test_fig1a_headline_and_orderings(fig1a_rows):
    at10 = {r.strategy: r for r in fig1a_rows if abs(r.delta_db - 10) < 1e-9}
    assert abs(at10["simple_R1"].p_err_simulated - 0.0378) < 0.005
    assert at10["improved_optimal"].p_err_simulated <= 3e-4
    at8 = {r.strategy: r for r in fig1a_rows if abs(r.delta_db - 8) < 1e-9}
    # below the crossover the improved circuit beats homodyne
    assert at8["improved_optimal"].p_err_simulated < at8["homodyne_formula"].p_err_formula
    big = run_fig1a(SweepConfig(delta_db_min=11.9, delta_db_max=12.1,
                                delta_db_points=2, rounds_list=(1,)))
    at12 = {r.strategy: r for r in big if r.delta_db < 12}
    assert at12["homodyne_formula"].p_err_formula < at12["improved_optimal"].p_err_simulated


def test_fig1a_helstrom_floor(fig1a_rows):
    for r in fig1a_rows:
        if r.p_err_simulated is not None:
            assert r.p_err_helstrom - 1e-10 <= r.p_err_simulated <= 0.5


def test_fig1b_envelope_property():
    cfg = SweepConfig(delta_db_min=8.0, delta_db_max=12.0, delta_db_points=3,
                      lambda_fixed_values=(0.02, 0.05, 0.1))
    rows = run_fig1b(cfg)
    by_delta = {}
    for r in rows:
        by_delta.setdefault(round(r.delta_db, 6), {})[r.strategy] = r
    for cols in by_delta.values():
        envelope = cols["improved_optimal"].p_err_simulated
        fixed = [v.p_err_simulated for k, v in cols.items() if k.startswith("fixed_")]
        assert min(fixed) >= envelope - 1e-9


def test_fig1b_fixed_zero_equals_simple():
    cfg = SweepConfig(delta_db_min=9.0, delta_db_max=10.0, delta_db_points=2,
                      lambda_fixed_values=(0.0,))
    rows = [r for r in run_fig1b(cfg) if r.strategy == "fixed_lambda_0.0"]
    assert len(rows) == 2
    for r in rows:
        assert abs(r.p_err_formula - analytics.p_err_simple_formula(r.delta)) < 1e-12


def test_fig1b_labels_tell_every_lambda_apart():
    # Two lambdas that agree to 6 significant digits get their own labels;
    # the defaults keep their short ones.
    cfg = SweepConfig(delta_db_min=9.0, delta_db_max=10.0, delta_db_points=2,
                      lambda_fixed_values=(0.1234567, 0.1234568))
    labels = {r.strategy: r.lambda_used for r in run_fig1b(cfg)}
    assert labels["fixed_lambda_0.1234567"] == 0.1234567
    assert labels["fixed_lambda_0.1234568"] == 0.1234568
    defaults = dataclasses.replace(cfg, lambda_fixed_values=SweepConfig().lambda_fixed_values)
    assert {r.strategy for r in run_fig1b(defaults)} == {
        "fixed_lambda_0.02", "fixed_lambda_0.05", "fixed_lambda_0.1", "fixed_lambda_0.15",
        "improved_optimal"}


def test_fixed_lambda_touches_envelope_once():
    # each fixed-lambda curve meets the optimized envelope in exactly one
    # delta neighbourhood (oracle: dense grid scan of the formulas).
    # The window is very narrow, hence the fine grid.
    deltas = np.linspace(0.15, 0.48, 3000)
    for lam in (0.05, 0.1, 0.15):
        ratio = np.array([
            analytics.p_err_improved_formula(d, lam)
            / analytics.p_err_improved_formula(d, analytics.optimal_lambda(d))
            for d in deltas
        ])
        close = ratio <= 1.05
        assert close.any()
        # the close region is one contiguous run
        idx = np.flatnonzero(close)
        assert idx[-1] - idx[0] == len(idx) - 1


def test_fig1c_sigma_zero_matches_fig1a(fig1a_rows):
    cfg = SweepConfig(delta_db_min=8.0, delta_db_max=10.0, delta_db_points=2,
                      sigma_list=(0.0,), rounds_list=(1,))
    rows = run_fig1c(cfg)
    ref = {(r.strategy, round(r.delta_db, 6)): r for r in fig1a_rows}
    for r in rows:
        key = (r.strategy, round(r.delta_db, 6))
        if key in ref:
            assert abs(r.p_err_simulated - ref[key].p_err_simulated) < 1e-9


def test_fig1c_mixed_state_behaviour():
    cfg = SweepConfig(delta_db_min=9.9, delta_db_max=10.0, delta_db_points=2,
                      sigma_list=(0.0, 0.1), rounds_list=(1,))
    rows = run_fig1c(cfg)
    at10 = [r for r in rows if abs(r.delta_db - 10.0) < 1e-9]
    improved = {r.sigma: r for r in at10 if r.strategy == "improved_optimal"}
    simple = {r.sigma: r for r in at10 if r.strategy == "simple_R1"}
    # performance degrades with mixedness, but improved still beats simple
    assert improved[0.1].p_err_simulated > improved[0.0].p_err_simulated
    assert improved[0.1].purity < improved[0.0].purity
    for sigma in (0.0, 0.1):
        assert improved[sigma].p_err_simulated <= simple[sigma].p_err_simulated + 1e-9
    assert abs(improved[0.1].delta_eff_db
               - (-10 * np.log10(0.1 + 2 * 0.01))) < 0.05


def _mixed_point(db, sigma):
    delta = db_to_delta(db)
    spec = auto_cutoff(delta)
    pair = make_state_pair(spec, delta, sigma=sigma)
    return pair, pair.delta_eff


@pytest.mark.parametrize("db, sigma", [(9.0, 0.05), (11.0, 0.15)])
def test_lambda_search_matches_bounded_minimization(db, sigma):
    # A bounded Brent run at xatol 1e-10 on the branch enumeration of the
    # grid point finds the search's lambda. The row reads its Fock cell
    # there, whose minimum is flat: a Brent run on the Fock twin of the same
    # Fock states finds the same p_err
    from scipy.optimize import minimize_scalar

    pair, deff = _mixed_point(db, sigma)
    lam = optimize_lambda_simulated(pair)
    bounds = (0.0, min(3 * np.sqrt(np.pi) * deff**2, LAMBDA_SEARCH_MAX))
    exact, fock = (minimize_scalar(lambda x, f=f: f(pair, CircuitParams(x, 1)).p_err,
                                   bounds=bounds, method="bounded", options={"xatol": 1e-10})
                   for f in (simulated_p_err, fock_p_err))
    assert abs(lam - exact.x) < 1e-7
    assert abs(readout_error(pair, CircuitParams(lam)) - fock.fun) < 1e-12 * fock.fun


def test_lambda_search_without_minimum_returns_least_scan_point(monkeypatch):
    # Without a minus-to-plus change of the slope on [0, hi], the search
    # returns the scan point of least error: here hi, capped by
    # LAMBDA_SEARCH_MAX, lies below the minimum, so the slope stays
    # negative and that point is hi itself
    pair, _ = _mixed_point(10.0, 0.1)
    hi = 3 * np.sqrt(np.pi) * 0.02**2
    monkeypatch.setattr(sweep, "LAMBDA_SEARCH_MAX", hi)
    grid = np.linspace(0.0, hi, LAMBDA_SCAN_POINTS)
    curve = one_round_curve(pair)
    assert np.all(curve(grid, 1) < 0)
    assert np.argmin(curve(grid)) == grid.size - 1
    assert optimize_lambda_simulated(pair) == grid[-1]


def test_csv_and_json_shapes(fig1a_rows):
    text = rows_to_csv(fig1a_rows)
    lines = text.strip().split("\n")
    assert lines[0] == "strategy," + ",".join(SWEEP_ROW_FIELDS)
    assert len(lines) == 1 + len(fig1a_rows)
    payload = json.loads(rows_to_json(fig1a_rows))
    assert len(payload) == len(fig1a_rows)
    assert list(payload[0]) == ["strategy"] + list(SWEEP_ROW_FIELDS)


def test_determinism(fig1a_rows):
    again = run_fig1a(SMALL)
    assert rows_to_csv(fig1a_rows) == rows_to_csv(again)


def test_emit_writes_file(tmp_path, fig1a_rows):
    cfg = SweepConfig(delta_db_min=8.0, delta_db_max=10.0, delta_db_points=2,
                      output_path=str(tmp_path / "out.csv"))
    text = emit(fig1a_rows, cfg)
    assert (tmp_path / "out.csv").read_text() == text


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment\n"
        "delta_db_min = 6.0\n"
        "delta_db_max = 12.0\n"
        "delta_db_points = 4\n"
        "rounds_list = 1, 3\n"
        "sigma_list = 0.0, 0.1\n"
        "format = json\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.delta_db_points == 4
    assert cfg.rounds_list == (1, 3)
    assert cfg.sigma_list == (0.0, 0.1)
    assert cfg.format == "json"


def test_config_file_sets_every_field(tmp_path):
    # Each key parses to the type of its SweepConfig default
    values = dict(delta_db_min=6.5, delta_db_max=12.5, delta_db_points=7,
                  lambda_fixed_values=(0.03, 0.07), rounds_list=(1, 7),
                  sigma_list=(0.02, 0.12), kappa_policy="fixed", kappa_fixed_value=2.5,
                  cutoff_policy="fixed", cutoff_n=200, output_path="table.json",
                  format="json", allow_extreme_range=True)
    defaults = {f.name: f.default for f in dataclasses.fields(SweepConfig)}
    assert set(values) == set(defaults)
    assert all(values[k] != defaults[k] for k in values)
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(
        f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in values.items()))
    cfg = parse_config_file(str(path))
    assert cfg == SweepConfig(**values)
    assert all(type(getattr(cfg, k)) is type(v) for k, v in values.items())


def test_config_file_errors_report_location(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta_db_min 6.0\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(bad))
    bad.write_text("nonsense_key = 1\n")
    with pytest.raises(ConfigError, match="nonsense_key"):
        parse_config_file(str(bad))
    # lambda_policy was removed: no runner read it
    bad.write_text("lambda_policy = optimized\n")
    with pytest.raises(ConfigError, match="unknown field 'lambda_policy'"):
        parse_config_file(str(bad))
    bad.write_text("delta_db_points = many\n")
    with pytest.raises(ConfigError, match="delta_db_points"):
        parse_config_file(str(bad))


@pytest.mark.parametrize("key", ["sigma_list", "rounds_list", "lambda_fixed_values"])
def test_config_file_rejects_empty_list(tmp_path, key):
    # An empty list would run no grid point: an error at its line, not an
    # empty table
    path = tmp_path / "sweep.cfg"
    path.write_text(f"delta_db_points = 2\n{key} =\n")
    with pytest.raises(ConfigError, match=f"sweep.cfg:2: field '{key}'"):
        parse_config_file(str(path))
    with pytest.raises(ConfigError, match=f"{key} must not be empty"):
        SweepConfig(**{key: ()})


@pytest.mark.parametrize("text, value", [
    ("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False),
    ("on", None), ("ture", None),
])
def test_config_file_booleans(tmp_path, text, value):
    # Only true/false/yes/no/1/0 parse; a typo is an error, not False
    path = tmp_path / "sweep.cfg"
    path.write_text(f"# flags\nallow_extreme_range = {text}\n")
    if value is None:
        with pytest.raises(ConfigError, match=r"sweep.cfg:2: field 'allow_extreme_range'"):
            parse_config_file(str(path))
    else:
        assert parse_config_file(str(path)).allow_extreme_range is value


# (figure, base values, changed values): every SweepConfig field, each on
# a base config under which the figure reads it
TINY = dict(delta_db_min=8.0, delta_db_max=9.0, delta_db_points=2, rounds_list=(1,),
            lambda_fixed_values=(0.05,), sigma_list=(0.0,))
CONFIG_CHANGES = [
    (run_fig1a, {}, {"delta_db_min": 8.5}),
    (run_fig1a, {}, {"delta_db_max": 9.5}),
    (run_fig1a, {}, {"delta_db_points": 3}),
    (run_fig1b, {}, {"lambda_fixed_values": (0.1,)}),
    (run_fig1a, {}, {"rounds_list": (1, 3)}),
    (run_fig1c, {}, {"sigma_list": (0.0, 0.1)}),
    (run_fig1a, {}, {"kappa_policy": "fixed"}),
    (run_fig1a, {"kappa_policy": "fixed"}, {"kappa_fixed_value": 2.5}),
    # auto picks N = 300 at 12 dB, so the fixed N = 150 truncates
    (run_fig1a, {"delta_db_min": 12.0, "delta_db_max": 12.5}, {"cutoff_policy": "fixed"}),
    (run_fig1a, {}, {"cutoff_n": 300}),
    (run_fig1a, {}, {"output_path": "table.out"}),
    (run_fig1a, {}, {"format": "json"}),
    # outside the guard: a ConfigError without the override
    (run_fig1a, {"delta_db_min": 3.5, "delta_db_max": 4.5}, {"allow_extreme_range": True}),
]


@pytest.mark.parametrize("run, base, change", CONFIG_CHANGES,
                         ids=[next(iter(c)) for _, _, c in CONFIG_CHANGES])
def test_every_config_key_changes_output(tmp_path, monkeypatch, run, base, change):
    assert {k for _, _, c in CONFIG_CHANGES for k in c} == {
        f.name for f in dataclasses.fields(SweepConfig)}
    monkeypatch.chdir(tmp_path)

    def output(**values):
        # The emitted text and every file written, or the config error
        try:
            cfg = SweepConfig(**{**TINY, **base, **values})
        except ConfigError as exc:
            return repr(exc)
        text = emit(run(cfg), cfg)
        return text, sorted((p.name, p.read_text()) for p in tmp_path.iterdir())

    unchanged = output()  # first: the changed config may write a file
    if "allow_extreme_range" in change:
        # The optimal lambda at 3.5 and at 4.5 dB lies outside the improved
        # formula's small-lambda regime, and each says so once
        with pytest.warns(UserWarning, match="small-lambda regime") as caught:
            changed = output(**change)
        assert len(caught) == 2
    else:
        changed = output(**change)
    assert unchanged != changed


def test_auto_cutoff_doubles_on_leaking_channel_output(monkeypatch):
    # The kets at 11.5 dB converge at N = 150, but their sigma = 0.15
    # channel output leaks 1.2e-10 there: auto doubles N for that point
    # alone, and every point builds its channel once per cutoff tried. The
    # kets at 12 dB leak at N = 150, so that point's channel is built at
    # N = 300 only
    from gkp_readout import states

    channel = states.gaussian_displacement_channel
    cutoffs = []

    def counted(spec, state, sigma):
        cutoffs.append(spec.cutoff)
        return channel(spec, state, sigma)

    monkeypatch.setattr(states, "gaussian_displacement_channel", counted)
    cfg = SweepConfig(delta_db_min=11.0, delta_db_max=12.0, delta_db_points=3,
                      sigma_list=(0.0, 0.15))
    rows = run_fig1c(cfg)
    assert {(r.delta_db, r.sigma): (r.cutoff_N, r.converged_flag) for r in rows} == {
        (11.0, 0.0): (150, True), (11.0, 0.15): (150, True),
        (11.5, 0.0): (150, True), (11.5, 0.15): (300, True),
        (12.0, 0.0): (300, True), (12.0, 0.15): (300, True)}
    # Two states: 11 dB at N = 150, 11.5 dB at N = 150 and at 300, then
    # 12 dB at N = 300
    assert cutoffs == [150, 150, 150, 150, 300, 300, 300, 300]


def test_auto_cutoff_flags_rows_past_the_largest_cutoff(monkeypatch):
    # The kets from 12 dB on leak at N = 150: with no larger cutoff to try,
    # every point flags its rows instead of discarding the table
    from gkp_readout import states

    monkeypatch.setattr(states, "MAX_CUTOFF", 150)
    rows = run_fig1a(SweepConfig(delta_db_min=12.0, delta_db_max=13.0, delta_db_points=2))
    assert len(rows) == 2 * (len(SweepConfig.rounds_list) + 3)
    assert {(r.cutoff_N, r.converged_flag) for r in rows} == {(150, False)}


def test_fixed_cutoff_flags_nonconverged_rows():
    cfg = SweepConfig(delta_db_min=13.5, delta_db_max=14.0, delta_db_points=2,
                      rounds_list=(1,), cutoff_policy="fixed", cutoff_n=100)
    rows = run_fig1a(cfg)
    assert rows  # never silently dropped
    assert any(not r.converged_flag for r in rows)


def test_sweeps_enumerate_no_branches(monkeypatch):
    # Every sweep cell is a closed form (lambda = 0, or one round on kets)
    # or the error curve: no branch enumeration and no Kraus pair
    from gkp_readout import readout

    calls = []
    for name in ("simulated_p_err", "sector_kraus", "_branch_tree", "_round_maps"):
        def counted(*args, _name=name, _f=getattr(readout, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(readout, name, counted)
    for command in ("fig1a", "fig1b", "fig1c"):
        assert main([command, "--points", "2"]) == 0
    assert calls == []


def test_one_x_population_pass_per_state_per_point(monkeypatch):
    # A fig1a point's effective squeezing and its lambda = 0 cells for
    # every rounds value read the X populations its pair computed once
    from gkp_readout import states

    seen = []
    populations = states.x_populations

    def counted(spec, state):
        seen.append(state)
        return populations(spec, state)

    monkeypatch.setattr(states, "x_populations", counted)
    cfg = SweepConfig(delta_db_min=8.0, delta_db_max=10.0, delta_db_points=3)
    assert cfg.rounds_list == (1, 3, 5)
    run_fig1a(cfg)
    assert len(seen) == 2 * cfg.delta_db_points
    assert len({id(state) for state in seen}) == len(seen)


def test_one_squeeze_svd_per_cutoff_whatever_the_deltas(monkeypatch, cold_caches):
    # From cold, a sweep runs the even-odd SVD once per cutoff for the X
    # sectors, which the kets, the Kraus factors, the channel and the error
    # curve share, and once per cutoff for the squeezed vacuum, however many
    # deltas start from it
    from gkp_readout import fock, states

    svd = fock._even_odd_svd
    x_basis, squeeze, kets = [], [], set()

    def counted(off):
        if np.array_equal(off, np.sqrt(np.arange(1, len(off) + 1) / 2)):
            x_basis.append(len(off) + 1)
        else:
            n = 2.0 * np.arange(len(off))
            assert np.array_equal(off, np.sqrt((n + 1) * (n + 2)))
            squeeze.append(len(off))
        return svd(off)

    def recorded(spec, deltas, kappas):
        kets.update((spec.cutoff, delta) for delta in deltas)
        return gkp_kets(spec, deltas, kappas)

    gkp_kets = states.gkp_kets
    monkeypatch.setattr(fock, "_even_odd_svd", counted)
    monkeypatch.setattr(states, "gkp_kets", recorded)
    assert main(["fig1c", "--points", "3"]) == 0
    cutoffs = {n for n, _ in kets}
    assert len(kets) > len(cutoffs)  # some cutoff serves several deltas
    assert sorted(x_basis) == sorted(n + 1 for n in cutoffs)
    # The squeeze block's off-diagonal runs along the even levels 0..n
    assert sorted(squeeze) == sorted(n // 2 for n in cutoffs)


def test_caches_hold_only_half_size_blocks(monkeypatch, cold_caches, tmp_path):
    # X's eigenbasis is kept only as its half-size parity sectors: after
    # cold fig1a and fig1c runs, and a state dump that assembles a Fock
    # density, every 2-D array a package cache holds is at most ⌈dim/2⌉
    # along each axis, and every array it holds is read-only, as each
    # caller shares it. A cache holds what it returns, so every binding of
    # each cache is wrapped to record its returns.
    held = []

    def recording(cached):
        def call(spec, *args):
            out = cached(spec, *args)
            held.append((spec, out))
            return out
        return call

    for module, name, cached in cold_caches:
        monkeypatch.setattr(module, name, recording(cached))
    for command in ("fig1a", "fig1c"):
        assert main([command, "--points", "2"]) == 0
    dump = tmp_path / "state.json"
    assert main(["state-info", "--delta-db", "10", "--sigma", "0.1", "--dump", str(dump)]) == 0
    assert json.loads(dump.read_text())["kind"] == "density"

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, tuple):
            for item in x:
                yield from arrays(item)

    shapes = {(spec.dim, a.shape) for spec, out in held for a in arrays(out) if a.ndim == 2}
    assert shapes
    assert all(max(shape) <= (dim + 1) // 2 for dim, shape in shapes), shapes
    assert {a.shape for spec, out in held for a in arrays(out) if a.flags.writeable} == set()
    assert any(cached.__name__ == "_lift_bases" and cached.cache_info().currsize
               for _, _, cached in cold_caches)


def test_config_key_given_twice_is_a_config_error(tmp_path):
    # A second line for a key would silently shadow the first
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta_db_points = 2\n# the same key again\ndelta_db_points = 3\n")
    with pytest.raises(ConfigError, match="sweep.cfg:3: field 'delta_db_points' already "
                                          "given on line 1"):
        parse_config_file(str(cfg))
    assert main(["fig1c", "--config", str(cfg)]) == EXIT_CONFIG


def test_mixed_sweep_points_build_no_fock_density(monkeypatch):
    # A mixed point is held as the channel's X-sector blocks, and its
    # purity, delta_eff, leakage, populations and error curve read them: a
    # fig1c table assembles no Fock density
    from gkp_readout import states

    calls = []
    assemble = states.assemble_density

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(states, "assemble_density", counted)
    assert SweepConfig.sigma_list == (0.0, 0.05, 0.1, 0.15)
    assert main(["fig1c", "--points", "2"]) == 0
    assert calls == []


@pytest.mark.parametrize("db, sigma", [(7.0, 0.15), (10.0, 0.1), (14.0, 0.05)])
def test_lambda_search_takes_few_newton_steps(db, sigma):
    # One slope scan, then at most four Newton steps, each one slope and one
    # curvature evaluation; the step that ends the search is below 1e-10, so
    # lambda is the slope's root to rounding
    pair, deff = _mixed_point(db, sigma)
    curve = one_round_curve(pair)
    points = []

    def slope(lam):
        points.append(np.ndim(lam))
        return curve(lam, 1)

    grid = np.linspace(0.0, min(3 * np.sqrt(np.pi) * deff**2, LAMBDA_SEARCH_MAX),
                       LAMBDA_SCAN_POINTS)
    lam = analytics.first_rising_root(slope, lambda x: curve(x, 2), grid, sweep.LAMBDA_XTOL)
    assert points[0] == 1 and len(points) <= 1 + 4
    assert abs(curve(lam, 1)) <= 1e-12 * curve(lam, 2)
    assert lam == optimize_lambda_simulated(pair)


def test_one_ket_build_per_cutoff_per_column(monkeypatch):
    # The benchmark's fig1a grid (7-14 dB, 8 points) builds its kets in one
    # call at N = 150 and one, for the 12-14 dB points that leak there, at
    # N = 300. A fig1c table shares each cutoff's call between its sigmas:
    # at N = 300 it builds 11.5 dB for sigma = 0.15 and 12 dB for both
    from gkp_readout import states

    calls = []
    build = states.gkp_kets

    def counted(spec, deltas, kappas):
        calls.append((spec.cutoff, len(deltas)))
        return build(spec, deltas, kappas)

    monkeypatch.setattr(states, "gkp_kets", counted)
    rows = run_fig1a(SweepConfig(delta_db_min=7.0, delta_db_max=14.0, delta_db_points=8))
    assert calls == [(150, 8), (300, 3)]
    assert [r.cutoff_N for r in rows if r.strategy == "helstrom"] == [150] * 5 + [300] * 3
    calls.clear()
    run_fig1c(SweepConfig(delta_db_min=11.0, delta_db_max=12.0, delta_db_points=3,
                          sigma_list=(0.0, 0.15)))
    assert calls == [(150, 3), (300, 2)]
