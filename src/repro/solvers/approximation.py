"""The paper's LP-rounding studies: Figure 8 and the §5.1 negative result.

The Checkmate approximation itself (§5.2, Algorithm 2: round ``S*`` of the LP
relaxation, then complete the schedule with the min-R solve) lives in
:mod:`repro.solvers.rounding_portfolio`; the Table 1 strategy
``checkmate_approx`` is its ``fixed_half`` scheme.  This module keeps the two
studies around it:

* :func:`randomized_rounding_samples` -- the scatter points of Figure 8,
  drawn from the portfolio's randomized rounding stream;
* :func:`naive_rounding_feasibility` -- naive deterministic or randomized
  rounding of *both* ``R*`` and ``S*`` essentially never yields a feasible
  schedule (the paper reports 0 feasible samples out of 50 000 for VGG16 at
  a 4x reduced budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import (
    ScheduleMatrices,
    schedule_compute_cost,
    validate_correctness_constraints,
)
from ..core.simulator import schedule_peak_memory
from .lp_relaxation import LPRelaxationResult
from .min_r import solve_min_r
from .rounding_portfolio import rounded_candidates

__all__ = [
    "RoundingSample",
    "randomized_rounding_samples",
    "naive_rounding_feasibility",
]


@dataclass
class RoundingSample:
    """One rounded schedule together with its metrics (one point of Figure 8)."""

    matrices: ScheduleMatrices
    compute_cost: float
    peak_memory: int
    feasible: bool
    mode: str


def randomized_rounding_samples(
    graph: DFGraph,
    budget: float,
    lp_result: LPRelaxationResult,
    *,
    num_samples: int = 20,
    seed: int = 0,
) -> List[RoundingSample]:
    """Draw two-phase *randomized* rounding samples (the scatter points of Figure 8)."""
    if lp_result.S_fractional is None:
        raise ValueError("LP relaxation was infeasible; no fractional S to round")
    S_frac = np.asarray(lp_result.S_fractional, dtype=np.float64)
    out: List[RoundingSample] = []
    for _, S_int in rounded_candidates(S_frac, "randomized", num_samples,
                                       np.random.default_rng(seed)):
        matrices = solve_min_r(graph, S_int)
        cost = schedule_compute_cost(graph, matrices)
        peak = schedule_peak_memory(graph, matrices)
        out.append(RoundingSample(matrices=matrices, compute_cost=cost, peak_memory=peak,
                                  feasible=peak <= budget, mode="randomized"))
    return out


def naive_rounding_feasibility(
    graph: DFGraph,
    budget: float,
    lp_result: LPRelaxationResult,
    *,
    mode: str = "randomized",
    num_samples: int = 1000,
    threshold: float = 0.5,
    seed: int = 0,
) -> dict:
    """Reproduce the §5.1 negative result: naive rounding of both ``R*`` and ``S*``.

    Rounds the full fractional solution (not just ``S*``) and counts how many
    samples satisfy the correctness constraints *and* the memory budget.  With
    deterministic rounding a single "sample" is evaluated.

    Returns a dict with ``num_samples``, ``num_correct`` (dependency-feasible)
    and ``num_feasible`` (dependency-feasible and within budget).
    """
    if lp_result.R_fractional is None or lp_result.S_fractional is None:
        raise ValueError("LP relaxation was infeasible")
    rng = np.random.default_rng(seed)
    R_frac, S_frac = lp_result.R_fractional, lp_result.S_fractional
    n_samples = 1 if mode == "deterministic" else int(num_samples)

    num_correct = 0
    num_feasible = 0
    for _ in range(n_samples):
        if mode == "deterministic":
            R = (R_frac > threshold).astype(np.uint8)
            S = (S_frac > threshold).astype(np.uint8)
        else:
            R = (rng.random(R_frac.shape) < R_frac).astype(np.uint8)
            S = (rng.random(S_frac.shape) < S_frac).astype(np.uint8)
        np.fill_diagonal(R, 1)  # the frontier constraint is kept; rounding the rest
        matrices = ScheduleMatrices(R, S)
        violations = validate_correctness_constraints(graph, matrices)
        if violations:
            continue
        num_correct += 1
        if schedule_peak_memory(graph, matrices) <= budget:
            num_feasible += 1
    return {
        "mode": mode,
        "num_samples": n_samples,
        "num_correct": num_correct,
        "num_feasible": num_feasible,
    }
