"""Exact simulation of the qubit-mediated readout circuits.

The simple circuit applies the conditional displacement U_x(i sqrt(pi)/2)
to (|0>_qubit ⊗ state) and measures the qubit; the improved circuit
prepends U_y(-lambda). With the qubit prepared in |0> and measured
afterwards, the circuit is a two-outcome instrument {K0, K1} on the
oscillator alone, built from functions of X and P. Multi-round runs
enumerate every measurement branch exactly, keeping the
post-measurement oscillator state and resetting the qubit between
rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fock import HilbertSpec, LinearOp, apply, function_of_p, function_of_x
from .states import GkpStatePair, effective_squeezing

PROB_PRUNE = 1e-15
MAX_ROUNDS = 9


@dataclass(frozen=True)
class CircuitParams:
    """Interaction strength lambda (0 = simple circuit) and an odd
    number of majority-vote rounds."""

    lam: float = 0.0
    rounds: int = 1

    def __post_init__(self):
        if self.rounds < 1 or self.rounds % 2 == 0:
            raise ValueError(f"rounds must be odd and >= 1, got {self.rounds}")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds capped at {MAX_ROUNDS}, got {self.rounds}")
        if abs(self.lam) >= 1:
            raise ValueError(f"|lambda| must be < 1, got {self.lam}")
        if abs(self.lam) > 0.5:
            import warnings

            warnings.warn(f"lambda = {self.lam} is far outside the small-lambda regime")


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome history of a multi-round run."""

    outcomes: str
    probability: float
    post_state: Optional[np.ndarray]

    @property
    def majority(self) -> int:
        ones = self.outcomes.count("1")
        return 1 if 2 * ones > len(self.outcomes) else 0


@dataclass(frozen=True)
class ReadoutOutcome:
    """Conditional error probabilities and the branch trees behind them."""

    p_1_given_0: float
    p_0_given_1: float
    branches_0: tuple = field(default=())
    branches_1: tuple = field(default=())

    @property
    def p_err(self) -> float:
        return 0.5 * (self.p_1_given_0 + self.p_0_given_1)


def readout_kraus(spec: HilbertSpec, lam: float) -> tuple[LinearOp, LinearOp]:
    """Kraus pair of U_x(i sqrt(pi)/2) · U_y(-lambda) on |0>_qubit ⊗ ·.

    With C = cos(sqrt(pi) X/2) and S = sin(sqrt(pi) X/2):
    K0 = C cos(lambda P) - i S sin(lambda P) and
    K1 = i S cos(lambda P) - C sin(lambda P).
    """
    half = np.sqrt(np.pi) / 2
    c = function_of_x(spec, lambda w: np.cos(half * w))
    s = function_of_x(spec, lambda w: np.sin(half * w))
    if lam == 0:
        return LinearOp(c), LinearOp(1j * s)
    cl = function_of_p(spec, lambda w: np.cos(lam * w))
    sl = function_of_p(spec, lambda w: np.sin(lam * w))
    return LinearOp(c @ cl - 1j * (s @ sl)), LinearOp(1j * (s @ cl) - c @ sl)


def run_readout_once(spec: HilbertSpec, state: np.ndarray, lam: float,
                     kraus: Optional[tuple[LinearOp, LinearOp]] = None):
    """One circuit execution on an oscillator ket or density matrix.

    Returns (p0, p1, post0, post1) with the normalized post-measurement
    oscillator states; a zero-probability branch yields a None post-state.
    Qubit outcome 0 is read as logical 0 (calibrated on |0~> at small
    delta, lambda = 0). `kraus` is `readout_kraus(spec, lam)`, passed in
    to reuse one pair across calls.
    """
    state = np.asarray(state, dtype=complex)
    if kraus is None:
        kraus = readout_kraus(spec, lam)
    outs = [apply(k, state) for k in kraus]
    if state.ndim == 1:
        probs = [float(np.vdot(o, o).real) for o in outs]
        posts = [o / np.sqrt(p) if p > PROB_PRUNE else None
                 for o, p in zip(outs, probs)]
    else:
        probs = [float(np.trace(o).real) for o in outs]
        posts = [o / p if p > PROB_PRUNE else None for o, p in zip(outs, probs)]
    return probs[0], probs[1], posts[0], posts[1]


def _enumerate_branches(spec, state, lam, kraus, rounds):
    branches = [Branch("", 1.0, state)]
    for _ in range(rounds):
        nxt = []
        for br in branches:
            if br.post_state is None:
                continue
            p0, p1, post0, post1 = run_readout_once(spec, br.post_state, lam,
                                                    kraus=kraus)
            for bit, p, post in (("0", p0, post0), ("1", p1, post1)):
                joint = br.probability * p
                if joint > PROB_PRUNE:
                    nxt.append(Branch(br.outcomes + bit, joint, post))
        branches = nxt
    return tuple(branches)


def simulated_p_err(pair: GkpStatePair, params: CircuitParams) -> ReadoutOutcome:
    """Exact readout error probability by full branch enumeration and
    majority vote over params.rounds repetitions."""
    kraus = readout_kraus(pair.spec, params.lam)
    trees = []
    wrong = []
    for mu, state in ((0, pair.state0), (1, pair.state1)):
        branches = _enumerate_branches(pair.spec, state, params.lam, kraus,
                                       params.rounds)
        trees.append(branches)
        wrong.append(sum(b.probability for b in branches if b.majority != mu))
    return ReadoutOutcome(p_1_given_0=wrong[0], p_0_given_1=wrong[1],
                          branches_0=trees[0], branches_1=trees[1])


def branch_tree_dump(pair: GkpStatePair, outcome: ReadoutOutcome) -> str:
    """JSON record of every branch: outcome string, probability, and the
    effective squeezing of the post-measurement state."""
    payload = {}
    for mu, branches in (("input_0", outcome.branches_0),
                         ("input_1", outcome.branches_1)):
        payload[mu] = [
            {
                "outcomes": b.outcomes,
                "probability": b.probability,
                "post_delta_eff": (None if b.post_state is None
                                   else effective_squeezing(pair.spec, b.post_state)),
            }
            for b in branches
        ]
    return json.dumps(payload, indent=2)


def homodyne_p_err_numeric(pair: GkpStatePair, points_per_bin: int = 257) -> float:
    """Readout error of an ideal X-quadrature measurement with
    nearest-sqrt(pi)-lattice-point binning, from the simulated position
    distributions.

    Each decision bin [(k-1/2)√π, (k+1/2)√π] is integrated separately
    (Simpson) so the bin edges never cut a panel; each state's density
    is evaluated once per resolution on the stacked grid of its bins.
    The per-bin resolution is doubled until the result is stable.
    """
    from scipy.integrate import simpson

    from .fock import position_density

    root_pi = np.sqrt(np.pi)
    k_max = int(np.ceil((pair.kappa * np.sqrt(2 * np.pi) + 6.0) / root_pi))
    ks = np.arange(-k_max, k_max + 1)

    def compute(m):
        total = 0.0
        for mu, state in ((0, pair.state0), (1, pair.state1)):
            k = ks[ks % 2 != mu]
            x = np.linspace((k - 0.5) * root_pi, (k + 0.5) * root_pi, m, axis=-1)
            dens = position_density(pair.spec, state, x.ravel()).reshape(x.shape)
            total += 0.5 * np.sum(simpson(dens, x=x, axis=-1))
        return total

    val = compute(points_per_bin)
    while True:
        fine = compute(2 * points_per_bin - 1)
        if abs(fine - val) < max(1e-12, 1e-4 * abs(fine)):
            return float(fine)
        val, points_per_bin = fine, 2 * points_per_bin - 1
        if points_per_bin > 10000:
            raise RuntimeError("homodyne grid did not converge")
