import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkp_readout.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, main


def test_optimize_lambda_command(capsys):
    assert main(["optimize-lambda", "--delta-db", "10"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["optimal_lambda"] - 0.0957338) < 1e-6
    assert abs(out["p_err_improved"] - 1.8997e-4) < 2e-8


def test_state_info_command(capsys, tmp_path):
    dump = tmp_path / "state.json"
    assert main(["state-info", "--delta-db", "10", "--sigma", "0",
                 "--dump", str(dump)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["delta_eff_db"] - 10.0) < 0.1
    assert abs(out["purity"] - 1.0) < 1e-6
    assert json.loads(dump.read_text())["kind"] == "ket"


def test_state_info_mixed(capsys, tmp_path, monkeypatch):
    # A mixed pair assembles each Fock array on its own first read: the
    # dump reads state0, so only its array is built
    from gkp_readout import states

    calls = []
    assemble = states.assemble_density

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(states, "assemble_density", counted)
    dump = tmp_path / "rho.json"
    assert main(["state-info", "--delta-db", "10", "--sigma", "0.1",
                 "--dump", str(dump)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["purity"] - 0.8338) < 1e-3
    assert "p_err_helstrom" not in out
    assert len(calls) == 1 and json.loads(dump.read_text())["kind"] == "density"


def test_fig1a_csv_contract(capsys):
    assert main(["fig1a", "--delta-db-min", "9", "--delta-db-max", "10",
                 "--points", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("strategy,delta_db,")
    per_strategy = {}
    for line in lines[1:]:
        per_strategy.setdefault(line.split(",")[0], []).append(line)
    for rows in per_strategy.values():
        assert len(rows) == 2


def test_deterministic_output(capsys):
    argv = ["fig1a", "--delta-db-min", "9", "--delta-db-max", "10", "--points", "2"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_config_error_exit_code(capsys):
    assert main(["fig1a", "--delta-db-min", "1", "--delta-db-max", "2",
                 "--points", "2"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


def test_config_file_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta_db_min = 9\ndelta_db_max = 10\ndelta_db_points = 2\n"
                   "rounds_list = 1\nformat = json\n")
    assert main(["fig1a", "--config", str(cfg)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 2 * 4


def test_bad_config_file(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta_db_points = soon\n")
    assert main(["fig1a", "--config", str(cfg)]) == EXIT_CONFIG


def test_validate_command(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 7
    assert "PASS  sweep closed forms within 1e-9 of the exact enumeration at 10 dB" in out


def test_validate_reports_failure(capsys, monkeypatch):
    # A Kraus block scaled by 1.01 breaks completeness, and branch
    # coefficients scaled by 1.01 break probability conservation: validate
    # says FAIL and exits as a convergence failure
    from gkp_readout import readout

    kraus, tree = readout.sector_kraus, readout._branch_tree

    def scaled(spec, lam):
        (a0, a1), b = kraus(spec, lam)
        return (1.01 * a0, a1), b

    def scaled_tree(rounds, lam):
        h, *rest = tree(rounds, lam)
        return (1.01 * h, *rest)

    monkeypatch.setattr(readout, "sector_kraus", scaled)
    monkeypatch.setattr(readout, "_branch_tree", scaled_tree)
    assert main(["validate"]) == EXIT_CONVERGENCE
    out = capsys.readouterr().out
    assert "FAIL  Kraus completeness" in out
    assert "FAIL  probability conservation" in out


@pytest.mark.parametrize("command", ["fig1a", "fig1b", "fig1c"])
def test_sweep_defaults_run(capsys, command):
    # Default configuration on its two grid endpoints, 5 and 14 dB
    assert main([command, "--points", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    delta_dbs = {line.split(",")[1] for line in lines[1:]}
    assert delta_dbs == {"5", "14"}


def readme_commands():
    """The `gkp-readout` lines of README's "Command line" block, without
    their trailing comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("gkp-readout ")]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command(capsys, tmp_path, monkeypatch, command):
    # Every documented command works with its defaults; files it writes
    # land in a scratch directory
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == EXIT_OK


def test_eigensolver_failure_exit_code(capsys, monkeypatch, cold_caches):
    # LinAlgError subclasses ValueError, but a failed eigensolve (the SVD
    # of the even-odd block) is a convergence failure, not a config error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["state-info", "--delta-db", "10"]) == EXIT_CONVERGENCE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "convergence"


def test_state_info_channel_leakage_exit_code(capsys, monkeypatch):
    # sigma = 5 spreads the 10 dB mixed state onto the top Fock levels. It
    # converges at N = 1200, but with N = 300 the largest cutoff the search
    # may try, the channel's output still leaks 5.9e-6: a convergence failure
    from gkp_readout import states

    monkeypatch.setattr(states, "MAX_CUTOFF", 300)
    assert main(["state-info", "--delta-db", "10", "--sigma", "5"]) == EXIT_CONVERGENCE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "convergence"
    assert "leakage" in err["error"]["message"]


def test_state_info_takes_the_sweeps_cutoff(capsys):
    # The kets at 11.5 dB converge at N = 150 but their sigma = 0.15
    # channel output does not: state-info doubles N as fig1c does, and
    # reports that point's cutoff, purity and delta_eff. At sigma = 0 its
    # Helstrom bound is fig1a's. Both read these off a pair that the same
    # search builds, so the values are equal
    from gkp_readout.sweep import SweepConfig, run_fig1a, run_fig1c

    assert main(["state-info", "--delta-db", "11.5", "--sigma", "0.15"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    row = run_fig1c(SweepConfig(delta_db_min=11.0, delta_db_max=11.5, delta_db_points=2,
                                sigma_list=(0.15,)))[-1]
    assert (row.delta_db, row.sigma, row.converged_flag) == (11.5, 0.15, True)
    assert out["cutoff_N"] == row.cutoff_N == 300
    assert out["purity"] == row.purity
    assert out["delta_eff_db"] == row.delta_eff_db
    assert main(["state-info", "--delta-db", "12"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    row = run_fig1a(SweepConfig(delta_db_min=11.0, delta_db_max=12.0, delta_db_points=2))[-1]
    assert (row.strategy, row.delta_db, row.cutoff_N) == ("helstrom", 12.0, out["cutoff_N"])
    assert out["p_err_helstrom"] == row.p_err_helstrom


def test_state_info_rejects_zero_kappa(capsys):
    # kappa = 0 is out of range like any kappa < 1, not a request for 1/delta
    assert main(["state-info", "--delta-db", "10", "--kappa", "0"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


NON_FINITE_CASES = {
    "kappa_inf": (["state-info", "--delta-db", "10", "--kappa", "inf"], None, "kappa"),
    "kappa_nan": (["state-info", "--delta-db", "10", "--kappa", "nan"], None, "kappa"),
    "kappa_fixed_nan": (["fig1a"], "kappa_policy = fixed\nkappa_fixed_value = nan\n", "kappa"),
    "sigma_nan": (["fig1c"], "sigma_list = 0.05, nan\n", "sigma_list"),
    "lambda_nan": (["fig1b"], "lambda_fixed_values = nan\n", "lambda_fixed_values"),
    "delta_db_max_inf": (["fig1c"], "allow_extreme_range = true\ndelta_db_max = inf\n",
                         "delta_db_max = inf"),
    "delta_db_min_nan": (["fig1c"], "allow_extreme_range = true\ndelta_db_min = nan\n",
                         "delta_db_min = nan"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_inputs_are_config_errors(tmp_path, case):
    # NaN or inf kappa, sigma, lambda or grid bound is a config error, one
    # record naming its key: it neither hangs the peak search nor prunes
    # every branch into a zero error. Run in a subprocess with a timeout,
    # so that a hang fails the test
    argv, config, named = NON_FINITE_CASES[case]
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("delta_db_points = 2\n" + config)
        argv = argv + ["--config", str(cfg)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "gkp_readout.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"]["type"] == "config"
    assert named in err["error"]["message"]


BAD_PATH_CASES = {
    "config": ["fig1a", "--config", "{missing}/sweep.cfg"],
    "output": ["fig1a", "--delta-db-min", "9", "--delta-db-max", "10", "--points", "2",
               "--output", "{missing}/table.csv"],
    "dump": ["state-info", "--delta-db", "10", "--dump", "{missing}/state.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_PATH_CASES))
def test_bad_path_is_config_error(capsys, tmp_path, case):
    # A file that cannot be read or written is a config error: exit 2 with
    # one JSON record, not a traceback
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in BAD_PATH_CASES[case]]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert str(missing) in err["error"]["message"]


def test_auto_cutoff_start_above_largest_is_config_error(capsys, tmp_path):
    # No cutoff is ever tried, so this is not a convergence failure
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("cutoff_policy = auto\ncutoff_n = 5000\n")
    assert main(["fig1a", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert "cutoff_n" in err["error"]["message"]


def test_numerical_domain_error_exit_code(capsys, monkeypatch, cold_caches):
    # A zero squeezed vacuum makes normalize fail on a zero ket: a failure
    # of the numerics, reported as convergence, not as a config error
    from gkp_readout import states

    monkeypatch.setattr(states, "squeezed_vacuum", lambda spec, delta: np.zeros(spec.dim))
    assert main(["state-info", "--delta-db", "10"]) == EXIT_CONVERGENCE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "convergence", "message": "cannot normalize zero state"}


def test_empty_config_list_exit_code(capsys, tmp_path):
    # sigma_list = (nothing) is a config error at its line, not a bare header
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta_db_points = 2\nsigma_list =\n")
    assert main(["fig1c", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "config"
    assert "sweep.cfg:2" in err["error"]["message"]


def test_bisection_failure_exit_code(capsys, monkeypatch):
    # A bisection without a sign change is a numerical failure: exit 3
    from gkp_readout import analytics

    monkeypatch.setattr(analytics, "optimal_lambda",
                        lambda delta: analytics._bisect(lambda x: x + 1.0, 0.0, 1.0, 0.0))
    assert main(["optimize-lambda", "--delta-db", "10"]) == EXIT_CONVERGENCE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "convergence"
    assert "no sign change" in err["error"]["message"]


def test_warnings_are_json_lines_on_stderr():
    # The 5 dB optimal lambda (0.33) warns in p_err_improved_formula; the
    # warning is a JSON record like the errors, not Python's text form
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "gkp_readout.cli", "fig1a", "--points", "2"],
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stderr.splitlines()]
    assert records
    assert all(set(r) == {"warning"} for r in records)
    assert any("small-lambda regime" in r["warning"]["message"] for r in records)


IMPORT_DIET_SCRIPT = """
import contextlib, io, sys
from gkp_readout import analytics, cli, readout, states


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert scipy_modules() == [], scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["fig1a", "--points", "2"], ["fig1c", "--points", "2"],
                 ["state-info", "--delta-db", "10", "--sigma", "0.1"],
                 ["optimize-lambda", "--delta-db", "10"], ["validate"]):
        assert cli.main(argv) == 0, argv
        assert scipy_modules() == [], (argv, scipy_modules())
delta = states.db_to_delta(10)
spec = states.auto_cutoff(delta)
mixed = states.make_state_pair(spec, delta, sigma=0.1)
readout.simulated_p_err(mixed, readout.CircuitParams(analytics.optimal_lambda(delta), 3))
readout.homodyne_p_err_numeric(states.make_state_pair(spec, delta))
print(" ".join(scipy_modules()))
"""


def test_import_diet():
    # The package runs on numpy alone: a fresh interpreter loads no scipy
    # module on import, after each command (fig1c's lambda search included),
    # or after a mixed readout and a homodyne
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_DIET_SCRIPT],
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_parser_built_once_and_runner_looked_up_when_run(monkeypatch, capsys):
    # main builds its parser on the first call only, and looks a sweep's
    # runner up when it runs: a wrapper installed after the first call runs
    from gkp_readout import cli, sweep

    monkeypatch.setattr(cli, "_parser", None)
    built, ran = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    argv = ["fig1a", "--delta-db-min", "8", "--delta-db-max", "9", "--points", "2"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    run = sweep.run_fig1a
    monkeypatch.setattr(sweep, "run_fig1a", lambda cfg: ran.append(cfg) or run(cfg))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert len(built) == 1 and len(ran) == 1


def test_sweep_csv_independent_of_blas_threads(tmp_path):
    # A table's CSV is the same under one BLAS thread and two: a second
    # thread can move a cell's last bits (the JSON of default fig1a, fig1b
    # and fig1c differs), and the CSV's 12 digits hide them. The fig1c grid
    # holds the 14 dB, sigma = 0.1 improved cell, whose p_err lies within
    # 1e-16 relative of a 12-digit rounding boundary
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = tmp_path / "fig1c.cfg"
    cfg.write_text("delta_db_min = 11\ndelta_db_max = 14\ndelta_db_points = 3\n"
                   "sigma_list = 0.05, 0.1\n")

    def table(argv, threads):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "gkp_readout.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for argv in (["fig1a", "--delta-db-min", "7", "--delta-db-max", "14", "--points", "8"],
                 ["fig1c", "--config", str(cfg)]):
        assert table(argv, "1") == table(argv, "2")
