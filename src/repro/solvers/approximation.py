"""Two-phase LP-rounding approximation algorithm (paper Section 5).

Solving the MILP exactly is NP-hard; for very deep or dense networks (the
paper cites DenseNet-161) no feasible solution is found within practical time
limits.  The paper therefore introduces a polynomial-time approximation:

1. solve the LP relaxation (§5.1),
2. round only the checkpoint matrix ``S*`` -- deterministically
   (``S_int = 1[S* > 0.5]``) or randomly (``Pr[S_int = 1] = S*``), and
3. complete the schedule with the conditionally optimal recomputation matrix
   ``R`` (phase two of Algorithm 2, implemented in
   :mod:`repro.solvers.min_r`), then recover ``FREE`` by simulation.

Because rounding ignores the memory budget, the LP is solved with an ``eps``
allowance (``U <= (1 - eps) * budget``, §5.3, default 0.1); the rounded
schedule's true peak memory is then checked against the *full* budget.

The module also reproduces the §5.1 negative results: naive deterministic or
randomized rounding of *both* ``R*`` and ``S*`` essentially never yields a
feasible schedule (the paper reports 0 feasible samples out of 50 000 for
VGG16 at a 4x reduced budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import (
    ScheduleMatrices,
    ScheduledResult,
    schedule_compute_cost,
    validate_correctness_constraints,
)
from ..core.simulator import schedule_peak_memory
from ..utils.timer import Timer
from .common import build_scheduled_result
from .lp_relaxation import LPRelaxationResult, solve_lp_relaxation
from .min_r import solve_min_r

__all__ = [
    "APPROX_STRATEGY_NAME",
    "RoundingSample",
    "solve_approx_lp_rounding",
    "two_phase_round",
    "randomized_rounding_samples",
    "naive_rounding_feasibility",
]

APPROX_STRATEGY_NAME = "checkmate-approx-lp"


@dataclass
class RoundingSample:
    """One rounded schedule together with its metrics (one point of Figure 8)."""

    matrices: ScheduleMatrices
    compute_cost: float
    peak_memory: int
    feasible: bool
    mode: str


def two_phase_round(
    graph: DFGraph,
    S_fractional: np.ndarray,
    *,
    mode: str = "deterministic",
    threshold: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> ScheduleMatrices:
    """Algorithm 2: round ``S*`` and complete with the minimal feasible ``R``.

    Parameters
    ----------
    mode:
        ``"deterministic"`` thresholds at ``threshold``; ``"randomized"`` draws
        each entry as Bernoulli(``S*``).
    """
    S_frac = np.asarray(S_fractional, dtype=np.float64)
    if mode == "deterministic":
        S_int = (S_frac > threshold).astype(np.uint8)
    elif mode == "randomized":
        rng = rng or np.random.default_rng()
        S_int = (rng.random(S_frac.shape) < S_frac).astype(np.uint8)
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return solve_min_r(graph, S_int)


def solve_approx_lp_rounding(
    graph: DFGraph,
    budget: float,
    *,
    allowance: float = 0.1,
    mode: str = "deterministic",
    num_samples: int = 1,
    seed: int = 0,
    lp_result: Optional[LPRelaxationResult] = None,
    lp_time_limit_s: float = 600.0,
    strategy_name: str = APPROX_STRATEGY_NAME,
) -> ScheduledResult:
    """The Checkmate approximation: LP relaxation + two-phase rounding.

    Parameters
    ----------
    budget:
        Memory budget in bytes.  The LP is solved at ``(1 - allowance) *
        budget`` (§5.3); the rounded schedule must fit the full budget.
    mode:
        ``"deterministic"`` (the paper's default, Table 2) or ``"randomized"``.
    num_samples:
        For randomized rounding, how many independent samples to draw; the
        cheapest feasible one is returned.
    lp_result:
        Optionally reuse an already-solved relaxation (e.g. when sweeping
        rounding strategies at a fixed budget, as in Figure 8).

    Returns
    -------
    :class:`ScheduledResult`; infeasible if the LP itself is infeasible or no
    rounded sample fits the budget.
    """
    if not (0.0 <= allowance < 1.0):
        raise ValueError("allowance must be in [0, 1)")
    with Timer() as timer:
        if lp_result is None:
            lp_result = solve_lp_relaxation(
                graph, budget * (1.0 - allowance), time_limit_s=lp_time_limit_s
            )
        if not lp_result.feasible or lp_result.S_fractional is None:
            return build_scheduled_result(
                strategy_name, graph, None, budget=int(budget), feasible=False,
                solver_status=f"lp-{lp_result.status}",
            )

        rng = np.random.default_rng(seed)
        samples = 1 if mode == "deterministic" else max(1, int(num_samples))
        best: Optional[ScheduleMatrices] = None
        best_cost = float("inf")
        best_peak = 0
        for _ in range(samples):
            matrices = two_phase_round(graph, lp_result.S_fractional, mode=mode, rng=rng)
            peak = schedule_peak_memory(graph, matrices)
            if peak > budget:
                continue
            cost = schedule_compute_cost(graph, matrices)
            if cost < best_cost:
                best, best_cost, best_peak = matrices, cost, peak

    if best is None:
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=timer.elapsed, solver_status="rounding-exceeded-budget",
            extra={"lp_objective": lp_result.objective},
        )
    return build_scheduled_result(
        strategy_name, graph, best, budget=int(budget), feasible=True,
        solve_time_s=timer.elapsed + lp_result.solve_time_s, solver_status="ok",
        peak_memory=best_peak,
        extra={"lp_objective": lp_result.objective, "rounding_mode": mode,
               "allowance": allowance, "peak_memory_rounded": best_peak},
    )


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
    rng = np.random.default_rng(seed)
    out: List[RoundingSample] = []
    for _ in range(num_samples):
        matrices = two_phase_round(graph, lp_result.S_fractional, mode="randomized", rng=rng)
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
