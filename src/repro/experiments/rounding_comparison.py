"""Figure 8 and the Section 5.1 negative result on naive LP rounding.

Figure 8 compares two-phase *deterministic* rounding against two-phase
*randomized* rounding (cost vs memory of each sample), together with the ILP
optimum and the checkpoint-all point.  Section 5.1 additionally reports that
naively rounding the full fractional solution (both ``R*`` and ``S*``) is
essentially never feasible -- zero feasible samples out of 50 000 for VGG16 at
a 4x reduced budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.dfgraph import DFGraph
from ..core.schedule import checkpoint_all_schedule, schedule_compute_cost
from ..core.simulator import schedule_peak_memory
from ..service import SolveService, SolverOptions, get_default_service
from ..solvers.approximation import (
    randomized_rounding_samples,
    naive_rounding_feasibility,
)
from ..solvers.lp_relaxation import solve_lp_relaxation
from ..solvers.rounding_portfolio import PORTFOLIO_STRATEGY_KEYS, solve_rounding_portfolio

__all__ = ["RoundingComparison", "rounding_comparison", "naive_rounding_study"]


@dataclass
class RoundingComparison:
    """All the points of one Figure-8 panel."""

    graph_name: str
    budget: int
    checkpoint_all_cost: float
    checkpoint_all_memory: int
    ilp_cost: Optional[float]
    ilp_memory: Optional[int]
    deterministic_cost: Optional[float]
    deterministic_memory: Optional[int]
    randomized_points: List[Dict[str, float]] = field(default_factory=list)
    #: Per-scheme ``{"cost": ..., "memory": ...}`` (or None when infeasible)
    #: for the rounding-portfolio strategies, when the panel includes them.
    portfolio_points: Dict[str, Optional[Dict[str, float]]] = field(
        default_factory=dict)

    @property
    def deterministic_beats_randomized_mean(self) -> Optional[bool]:
        feasible = [p for p in self.randomized_points if p["feasible"]]
        if not feasible or self.deterministic_cost is None:
            return None
        mean_cost = sum(p["cost"] for p in feasible) / len(feasible)
        return self.deterministic_cost <= mean_cost


def rounding_comparison(
    graph: DFGraph,
    budget: int,
    *,
    allowance: float = 0.1,
    num_randomized_samples: int = 15,
    include_ilp: bool = True,
    include_portfolio: bool = False,
    ilp_time_limit_s: float = 120.0,
    seed: int = 0,
    service: Optional[SolveService] = None,
) -> RoundingComparison:
    """Produce one panel of Figure 8 for a training graph and budget.

    The LP relaxation is solved once and shared by both rounding modes (so it
    stays a direct call); the independent ILP reference point goes through the
    solve service and benefits from the plan cache.  ``include_portfolio``
    additionally plots the four rounding-portfolio strategies -- they share
    one LP relaxation solve among themselves via the process-wide
    ``LPRelaxationCache``, so the whole family costs one extra LP.
    """
    service = service or get_default_service()
    ca = checkpoint_all_schedule(graph)
    ca_cost = schedule_compute_cost(graph, ca)
    ca_mem = schedule_peak_memory(graph, ca)

    lp = solve_lp_relaxation(graph, budget * (1 - allowance))

    det = solve_rounding_portfolio(graph, budget, scheme="fixed_half",
                                   allowance=allowance, lp_result=lp)
    rand_points: List[Dict[str, float]] = []
    if lp.feasible:
        for sample in randomized_rounding_samples(graph, budget, lp,
                                                  num_samples=num_randomized_samples,
                                                  seed=seed):
            rand_points.append({"cost": sample.compute_cost,
                                "memory": float(sample.peak_memory),
                                "feasible": bool(sample.feasible)})

    ilp_cost = ilp_mem = None
    if include_ilp:
        ilp = service.solve(graph, "checkmate_ilp", budget,
                            SolverOptions(time_limit_s=ilp_time_limit_s))
        if ilp.feasible:
            ilp_cost, ilp_mem = ilp.compute_cost, ilp.peak_memory

    portfolio_points: Dict[str, Optional[Dict[str, float]]] = {}
    if include_portfolio:
        options = SolverOptions(allowance=allowance, seed=seed,
                                num_samples=num_randomized_samples)
        for key in PORTFOLIO_STRATEGY_KEYS:
            result = service.solve(graph, key, budget, options)
            portfolio_points[key] = (
                {"cost": float(result.compute_cost),
                 "memory": float(result.peak_memory)}
                if result.feasible else None)

    return RoundingComparison(
        graph_name=graph.name,
        budget=int(budget),
        checkpoint_all_cost=ca_cost,
        checkpoint_all_memory=int(ca_mem),
        ilp_cost=ilp_cost,
        ilp_memory=ilp_mem,
        deterministic_cost=det.compute_cost if det.feasible else None,
        deterministic_memory=det.peak_memory if det.feasible else None,
        randomized_points=rand_points,
        portfolio_points=portfolio_points,
    )


def naive_rounding_study(
    graph: DFGraph,
    budget: int,
    *,
    num_samples: int = 500,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Reproduce the §5.1 negative result on a graph at a reduced budget.

    Returns feasibility counts for naive deterministic rounding and naive
    randomized rounding of the full fractional solution.  The paper's number
    (0 feasible out of 50 000) used 50k samples; the default here is smaller
    for CI-scale runs but the observed feasibility rate is the same: zero.
    """
    lp = solve_lp_relaxation(graph, budget)
    if not lp.feasible:
        raise ValueError("LP relaxation infeasible at this budget; pick a larger budget")
    deterministic = naive_rounding_feasibility(graph, budget, lp, mode="deterministic")
    randomized = naive_rounding_feasibility(graph, budget, lp, mode="randomized",
                                            num_samples=num_samples, seed=seed)
    return {"deterministic": deterministic, "randomized": randomized}
