"""Readout-error simulator and analytics for qubit-coupled GKP states."""

from .fock import HilbertSpec
from .states import (
    GkpStatePair,
    make_state_pair,
    gaussian_displacement_channel,
    assemble_density,
    effective_squeezing,
    purity,
    helstrom_bound,
    delta_db,
    db_to_delta,
    auto_cutoff,
    converged_pair,
)
from .readout import (
    CircuitParams,
    ReadoutOutcome,
    homodyne_p_err_numeric,
    one_round_curve,
    readout_error,
    simulated_p_err,
)
from .analytics import (
    p_err_homodyne_formula,
    p_err_simple_formula,
    p_err_improved_formula,
    p_err_leading_order,
    optimal_lambda,
    helstrom_formula,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
