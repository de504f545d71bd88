"""Configuration-driven parameter sweeps over squeezing, interaction
strength, rounds, and channel noise, with deterministic CSV/JSON output.
A table's pairs come from one cutoff search over its column of points,
each row is read off its point's `GkpStatePair` (`_row`), and the table's
closed-form cells come from one `readout_errors` call. fig1c tunes a
mixed point's lambda on the exact one-round curve of its grid point, and
reads its cell there."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import analytics
from .fock import HilbertSpec
from .readout import CircuitParams, one_round_curve, readout_errors
from .states import MAX_CUTOFF, GkpStatePair, check_point, converged_pairs, db_to_delta, delta_db

DB_GUARD = (4.0, 16.0)
# Upper end of the simulated-lambda search, so that the lambda it returns
# is one CircuitParams accepts (|lambda| < 1), and its scan points.
LAMBDA_SEARCH_MAX = 0.95
LAMBDA_SCAN_POINTS = 64
# Step in lambda at which the search stops: the error is flat at its
# minimum, so lambda digits below it leave p_err unchanged.
LAMBDA_XTOL = 1e-10
# Accepted spellings of a boolean config value, compared case-insensitively.
BOOL_TEXT = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class ConfigError(ValueError):
    """Malformed or out-of-range sweep configuration."""


@dataclass(frozen=True)
class SweepConfig:
    delta_db_min: float = 5.0
    delta_db_max: float = 14.0
    delta_db_points: int = 19
    lambda_fixed_values: tuple = (0.02, 0.05, 0.1, 0.15)
    rounds_list: tuple = (1, 3, 5)
    sigma_list: tuple = (0.0, 0.05, 0.1, 0.15)
    kappa_policy: str = "inverse_delta"  # inverse_delta | fixed
    kappa_fixed_value: float = 3.0
    cutoff_policy: str = "auto"  # auto | fixed
    cutoff_n: int = 150
    output_path: Optional[str] = None
    format: str = "csv"  # csv | json
    allow_extreme_range: bool = False

    def __post_init__(self):
        if not isinstance(self.delta_db_points, (int, np.integer)) or self.delta_db_points < 2:
            raise ConfigError(f"delta_db_points must be an int >= 2, got {self.delta_db_points!r}")
        # Finite, ordered bounds (NaN fails every comparison), and
        # delta_db_min > 0 so that every delta < 1.
        if not 0 < self.delta_db_min < self.delta_db_max < np.inf:
            raise ConfigError(f"need 0 < delta_db_min < delta_db_max < inf, got delta_db_min = "
                              f"{self.delta_db_min}, delta_db_max = {self.delta_db_max}")
        if not self.allow_extreme_range and not (
            DB_GUARD[0] <= self.delta_db_min and self.delta_db_max <= DB_GUARD[1]
        ):
            raise ConfigError(
                f"delta_db range [{self.delta_db_min}, {self.delta_db_max}] outside the "
                f"guard {list(DB_GUARD)}; set allow_extreme_range to override")
        if self.kappa_policy not in ("inverse_delta", "fixed"):
            raise ConfigError(f"unknown kappa_policy {self.kappa_policy!r}")
        if self.cutoff_policy not in ("auto", "fixed"):
            raise ConfigError(f"unknown cutoff_policy {self.cutoff_policy!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        for f in fields(self):
            if isinstance(f.default, tuple) and not getattr(self, f.name):
                raise ConfigError(f"{f.name} must not be empty")
        if self.cutoff_policy == "auto" and self.cutoff_n > MAX_CUTOFF:
            raise ConfigError(f"cutoff_n must be <= {MAX_CUTOFF} with cutoff_policy auto")
        # Each value takes the rule of what it builds, before any state is.
        kappas = (self.kappa_fixed_value,) if self.kappa_policy == "fixed" else ()
        for name, values, check in (
                ("cutoff_n", (self.cutoff_n,), HilbertSpec),
                ("kappa_fixed_value", kappas, lambda x: check_point(0.5, kappa=x)),
                ("rounds_list", self.rounds_list, lambda x: CircuitParams(rounds=x)),
                ("lambda_fixed_values", self.lambda_fixed_values, lambda x: CircuitParams(lam=x)),
                ("sigma_list", self.sigma_list, lambda x: check_point(0.5, sigma=x))):
            for value in values:
                try:
                    check(value)
                except ValueError as exc:
                    raise ConfigError(f"{name}: {exc}") from None

    def delta_grid(self) -> np.ndarray:
        dbs = np.linspace(self.delta_db_min, self.delta_db_max, self.delta_db_points)
        return np.array([db_to_delta(db) for db in dbs])


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    delta_db: float
    delta: float
    kappa: float
    sigma: float
    purity: float
    delta_eff_db: float
    lambda_used: float
    rounds: int
    p_err_simulated: Optional[float]
    p_err_formula: Optional[float]
    p_err_homodyne_formula: float
    p_err_helstrom: Optional[float]
    cutoff_N: int
    converged_flag: bool


# Column order of the emitted tables; "strategy" is prepended.
SWEEP_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))[1:]


# Place of p_err_simulated in a row's values.
_SIM = SWEEP_ROW_FIELDS.index("p_err_simulated") + 1


def _row(pair: GkpStatePair, strategy: str, lam: float, rounds: int, p_sim, p_formula) -> list:
    """A row's values, in SweepRow order. p_sim may be a (pair, CircuitParams)
    cell, which `_sweep` reads with the table's others."""
    return [strategy, delta_db(pair.delta), pair.delta, pair.kappa, pair.sigma,
            pair.purity, delta_db(pair.delta_eff), lam, rounds, p_sim, p_formula,
            analytics.p_err_homodyne_formula(pair.delta), pair.helstrom,
            pair.spec.cutoff, pair.converged]


def _sweep(config: SweepConfig, sigmas, point_rows) -> list[SweepRow]:
    """Rows of every (delta, sigma) grid point, point_rows(pair) each, delta
    major; a pair that still truncates is flagged, so no row is dropped."""
    # One converged_pairs call builds every sigma's column of pairs, at
    # cutoff_n under the fixed cutoff policy, or from it under auto.
    deltas = config.delta_grid()
    kappa = None if config.kappa_policy == "inverse_delta" else config.kappa_fixed_value
    columns = converged_pairs(deltas, [kappa] * len(deltas), sigmas, config.cutoff_n,
                              config.cutoff_n if config.cutoff_policy == "fixed" else None)
    rows = [row for i in range(len(deltas)) for column in columns for row in point_rows(column[i])]
    cells = [row for row in rows if isinstance(row[_SIM], tuple)]
    for row, p_err in zip(cells, readout_errors([row[_SIM] for row in cells])):
        row[_SIM] = p_err
    return [SweepRow(*row) for row in rows]


def _improved_optimal(pair: GkpStatePair) -> list:
    lam = analytics.optimal_lambda(pair.delta)
    return _row(pair, "improved_optimal", lam, 1, (pair, CircuitParams(lam)),
                analytics.p_err_improved_formula(pair.delta, lam))


def run_fig1a(config: SweepConfig) -> list[SweepRow]:
    """Error probability vs squeezing: simple circuit for each rounds
    value, the optimized improved circuit, homodyne, and Helstrom."""
    def point_rows(pair):
        delta = pair.delta
        return [*(_row(pair, f"simple_R{r}", 0.0, r, (pair, CircuitParams(0.0, r)),
                       analytics.p_err_simple_formula(delta) if r == 1 else None)
                  for r in config.rounds_list),
                _improved_optimal(pair),
                _row(pair, "homodyne_formula", 0.0, 1, None,
                     analytics.p_err_homodyne_formula(delta)),
                _row(pair, "helstrom", 0.0, 1, None, pair.helstrom)]
    return _sweep(config, (0.0,), point_rows)


def run_fig1b(config: SweepConfig) -> list[SweepRow]:
    """Fixed-lambda curves vs squeezing, plus the optimized envelope."""
    def point_rows(pair):
        return [*(_row(pair, f"fixed_lambda_{float(lam)!r}", lam, 1, (pair, CircuitParams(lam)),
                       analytics.p_err_improved_formula(pair.delta, lam))
                  for lam in config.lambda_fixed_values),
                _improved_optimal(pair)]
    return _sweep(config, (0.0,), point_rows)


def optimize_lambda_simulated(pair: GkpStatePair) -> float:
    """The lambda of least one-round error of a mixed pair's grid point, in
    [0, min(3√π δ_eff², LAMBDA_SEARCH_MAX)], δ_eff the pair's: the first
    minus-to-plus change of the slope of the exact curve (`one_round_curve`)
    on a scan, refined by Newton steps with its curvature to a step of
    LAMBDA_XTOL; without one, the scan point of least error."""
    curve = one_round_curve(pair)
    grid = np.linspace(0.0, min(3 * np.sqrt(np.pi) * pair.delta_eff**2, LAMBDA_SEARCH_MAX),
                       LAMBDA_SCAN_POINTS)
    lam = analytics.first_rising_root(lambda x: curve(x, 1), lambda x: curve(x, 2), grid,
                                      LAMBDA_XTOL)
    return float(grid[np.argmin(curve(grid))]) if lam is None else lam


def run_fig1c(config: SweepConfig) -> list[SweepRow]:
    """Mixed-state performance: for each (delta, sigma) the simple circuit
    and the improved circuit with lambda tuned on the exact one-round error;
    both read the pair's Fock states."""
    def point_rows(pair):
        simple = _row(pair, "simple_R1", 0.0, 1, (pair, CircuitParams(0.0)),
                      analytics.p_err_simple_formula(pair.delta_eff))
        lam = (analytics.optimal_lambda(pair.delta) if pair.sigma == 0
               else optimize_lambda_simulated(pair))
        return [simple, _row(pair, "improved_optimal", lam, 1, (pair, CircuitParams(lam)), None)]
    return _sweep(config, config.sigma_list, point_rows)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _columns(row: SweepRow) -> dict:
    # The row's fields in table order, read directly: asdict would
    # deep-copy every value.
    return {name: getattr(row, name) for name in ("strategy",) + SWEEP_ROW_FIELDS}


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(("strategy",) + SWEEP_ROW_FIELDS)]
    lines += [",".join(map(_format_value, _columns(row).values())) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow]) -> str:
    return json.dumps([_columns(row) for row in rows], indent=2) + "\n"


def emit(rows: list[SweepRow], config: SweepConfig) -> str:
    text = rows_to_csv(rows) if config.format == "csv" else rows_to_json(rows)
    if config.output_path:
        with open(config.output_path, "w") as f:
            f.write(text)
    return text


def _parse_value(default, text: str):
    """Parse text as the type of a SweepConfig default: a tuple as
    comma-separated values of its first entry's type, None as text."""
    if isinstance(default, bool):  # before int: bool subclasses int
        if text.lower() not in BOOL_TEXT:
            raise ValueError(f"expected one of {'/'.join(BOOL_TEXT)}, got {text!r}")
        return BOOL_TEXT[text.lower()]
    if isinstance(default, tuple):
        items = tuple(type(default[0])(x) for x in text.split(",") if x.strip())
        if not items:
            raise ValueError("expected at least one comma-separated value")
        return items
    return text if default is None else type(default)(text)


def parse_config_file(path: str) -> SweepConfig:
    """Flat key = value text config; '#' starts a comment. Each key takes
    the type of its SweepConfig default, and may be given once."""
    defaults = {f.name: f.default for f in fields(SweepConfig)}
    values, linenos = {}, {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in defaults:
                raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
            if key in linenos:
                raise ConfigError(f"{path}:{lineno}: field {key!r} already given on line "
                                  f"{linenos[key]}")
            linenos[key] = lineno
            try:
                values[key] = _parse_value(defaults[key], val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
    return SweepConfig(**values)
