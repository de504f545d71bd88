"""Configuration-driven parameter sweeps over squeezing, interaction
strength, rounds, and channel noise, with deterministic CSV/JSON output."""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import analytics
from .fock import LEAKAGE_TOL, HilbertSpec, leakage
from .readout import CircuitParams, simulated_p_err
from .states import (
    GkpSpec,
    auto_cutoff,
    db_to_delta,
    delta_db,
    effective_squeezing,
    helstrom_bound,
    make_pure_gkp,
    make_state_pair,
    purity,
)

DB_GUARD = (4.0, 16.0)
# Upper end of the simulated-lambda search; CircuitParams needs |lambda| < 1.
LAMBDA_SEARCH_MAX = 0.95


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
        if self.delta_db_points < 2:
            raise ConfigError(f"delta_db_points must be >= 2, got {self.delta_db_points}")
        if self.delta_db_min >= self.delta_db_max:
            raise ConfigError("delta_db range must be ordered (min < max)")
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
        for r in self.rounds_list:
            if r % 2 == 0 or r < 1:
                raise ConfigError(f"rounds_list entries must be odd, got {r}")

    def delta_grid(self) -> np.ndarray:
        dbs = np.linspace(self.delta_db_min, self.delta_db_max, self.delta_db_points)
        return np.array([db_to_delta(db) for db in dbs])

    def kappa_for(self, delta: float) -> float:
        return 1.0 / delta if self.kappa_policy == "inverse_delta" else self.kappa_fixed_value

    def spec_for(self, delta: float, kappa: float) -> HilbertSpec:
        if self.cutoff_policy == "fixed":
            return HilbertSpec(self.cutoff_n)
        return auto_cutoff(delta, kappa, start=self.cutoff_n)


# Column order of the emitted tables; "strategy" is prepended.
SWEEP_ROW_FIELDS = (
    "delta_db", "delta", "kappa", "sigma", "purity", "delta_eff_db",
    "lambda_used", "rounds", "p_err_simulated", "p_err_formula",
    "p_err_homodyne_formula", "p_err_helstrom", "cutoff_N", "converged_flag",
)


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


def _base_metrics(config: SweepConfig, delta: float, sigma: float = 0.0):
    """Build the state pair and the per-point scalars shared by all rows.

    With a fixed cutoff, truncation failures are flagged via
    converged_flag rather than raised, so no row is ever dropped.
    """
    kappa = config.kappa_for(delta)
    spec = config.spec_for(delta, kappa)
    pair = make_state_pair(spec, delta, kappa, sigma, strict=False)
    # The pair's kets are cached, so rereading them for the leakage is free.
    converged = config.cutoff_policy == "auto" or all(
        leakage(make_pure_gkp(spec, GkpSpec(mu, delta, kappa), strict=False)) < LEAKAGE_TOL
        for mu in (0, 1))
    pur = purity(pair.state0)
    deff = effective_squeezing(spec, pair.state0)
    hel = helstrom_bound(pair.state0, pair.state1) if pair.is_pure else None
    return spec, pair, kappa, pur, deff, hel, converged


def _row(strategy, delta, sigma, spec, kappa, pur, deff, hel,
         lam, rounds, p_sim, p_formula, converged):
    return SweepRow(
        strategy=strategy,
        delta_db=delta_db(delta),
        delta=delta,
        kappa=kappa,
        sigma=sigma,
        purity=pur,
        delta_eff_db=delta_db(deff),
        lambda_used=lam,
        rounds=rounds,
        p_err_simulated=p_sim,
        p_err_formula=p_formula,
        p_err_homodyne_formula=analytics.p_err_homodyne_formula(delta),
        p_err_helstrom=hel,
        cutoff_N=spec.cutoff,
        converged_flag=converged,
    )


def run_fig1a(config: SweepConfig) -> list[SweepRow]:
    """Error probability vs squeezing: simple circuit for each rounds
    value, the optimized improved circuit, homodyne, and Helstrom."""
    rows = []
    for delta in config.delta_grid():
        spec, pair, kappa, pur, deff, hel, conv = _base_metrics(config, delta)
        for r in config.rounds_list:
            out = simulated_p_err(pair, CircuitParams(0.0, r))
            formula = analytics.p_err_simple_formula(delta) if r == 1 else None
            rows.append(_row(f"simple_R{r}", delta, 0.0, spec, kappa,
                             pur, deff, hel, 0.0, r, out.p_err, formula, conv))
        lam = analytics.optimal_lambda(delta)
        out = simulated_p_err(pair, CircuitParams(lam, 1))
        rows.append(_row("improved_optimal", delta, 0.0, spec, kappa,
                         pur, deff, hel, lam, 1, out.p_err,
                         analytics.p_err_improved_formula(delta, lam), conv))
        rows.append(_row("homodyne_formula", delta, 0.0, spec, kappa,
                         pur, deff, hel, 0.0, 1, None,
                         analytics.p_err_homodyne_formula(delta), conv))
        rows.append(_row("helstrom", delta, 0.0, spec, kappa,
                         pur, deff, hel, 0.0, 1, None, hel, conv))
    return rows


def run_fig1b(config: SweepConfig) -> list[SweepRow]:
    """Fixed-lambda curves vs squeezing, plus the optimized envelope."""
    rows = []
    for delta in config.delta_grid():
        spec, pair, kappa, pur, deff, hel, conv = _base_metrics(config, delta)
        for lam in config.lambda_fixed_values:
            out = simulated_p_err(pair, CircuitParams(lam, 1))
            rows.append(_row(f"fixed_lambda_{lam:g}", delta, 0.0, spec,
                             kappa, pur, deff, hel, lam, 1, out.p_err,
                             analytics.p_err_improved_formula(delta, lam), conv))
        lam = analytics.optimal_lambda(delta)
        out = simulated_p_err(pair, CircuitParams(lam, 1))
        rows.append(_row("improved_optimal", delta, 0.0, spec, kappa,
                         pur, deff, hel, lam, 1, out.p_err,
                         analytics.p_err_improved_formula(delta, lam), conv))
    return rows


def optimize_lambda_simulated(pair, deff: float, xatol: float = 1e-7) -> tuple[float, float]:
    """Direct scalar minimization of the simulated error over lambda,
    used where the pure-state formula does not apply (mixed inputs)."""
    from scipy.optimize import minimize_scalar

    hi = min(3 * np.sqrt(np.pi) * deff**2, LAMBDA_SEARCH_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minimize_scalar(
            lambda l: simulated_p_err(pair, CircuitParams(l, 1)).p_err,
            bounds=(0.0, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun)


def run_fig1c(config: SweepConfig) -> list[SweepRow]:
    """Mixed-state performance: for each (delta, sigma) the simple circuit
    and the improved circuit with lambda tuned on the simulated error."""
    rows = []
    for delta in config.delta_grid():
        for sigma in config.sigma_list:
            spec, pair, kappa, pur, deff, hel, conv = _base_metrics(config, delta, sigma)
            out = simulated_p_err(pair, CircuitParams(0.0, 1))
            rows.append(_row("simple_R1", delta, sigma, spec, kappa,
                             pur, deff, hel, 0.0, 1, out.p_err,
                             analytics.p_err_simple_formula(deff), conv))
            if sigma == 0:
                lam = analytics.optimal_lambda(delta)
                p_sim = simulated_p_err(pair, CircuitParams(lam, 1)).p_err
            else:
                lam, p_sim = optimize_lambda_simulated(pair, deff)
            rows.append(_row("improved_optimal", delta, sigma, spec,
                             kappa, pur, deff, hel, lam, 1, p_sim, None, conv))
    return rows


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def rows_to_csv(rows: list[SweepRow]) -> str:
    header = ("strategy",) + SWEEP_ROW_FIELDS
    lines = [",".join(header)]
    for row in rows:
        d = asdict(row)
        lines.append(",".join(_format_value(d[k]) for k in header))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow]) -> str:
    # SweepRow's fields are "strategy" followed by SWEEP_ROW_FIELDS, in order.
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


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
        return text.lower() in ("1", "true", "yes")
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(",") if x.strip())
    return text if default is None else type(default)(text)


def parse_config_file(path: str) -> SweepConfig:
    """Flat key = value text config; '#' starts a comment. Each key takes
    the type of its SweepConfig default."""
    defaults = {f.name: f.default for f in fields(SweepConfig)}
    values = {}
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
            try:
                values[key] = _parse_value(defaults[key], val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
    return SweepConfig(**values)
