"""Bisection-driven Pareto frontier tracing (memory budget vs recompute cost).

A budget sweep samples the memory-vs-recompute trade-off on a fixed grid, but
the frontier is a *staircase*: long flat steps (one optimal checkpoint set
serves a whole budget interval) separated by knees where the optimal schedule
changes.  Dense grids waste most of their solver calls re-discovering flat
steps.  :func:`trace_pareto_frontier` instead bisects the budget axis
recursively and stops early on any segment whose endpoint costs already agree
-- for an exact solver the objective is monotone non-increasing in budget, so
equal endpoint costs prove every interior budget shares the same cost, i.e.
the segment is one flat step and needs no further probes.

Each probe is an ordinary :meth:`~repro.service.solve.SolveService.solve`, so
it lands in the plan cache, and -- for warm-capable strategies -- the trace
hands it the incumbent of the nearest feasible larger budget it has already
probed as ``warm_start=`` (the bisection order makes that the enclosing
segment's upper endpoint for every probe after the first).  The combination
finds every knee to ``resolution`` precision with a fraction of the solver
calls a dense grid at the same resolution would spend.

The trace starts at the no-recompute peak: at and above it the no-recompute
schedule fits, so the front is one flat step at ``sum(C)`` (the least a
schedule can cost) and one point records it.  Bisection only covers the
budgets below, where rematerialization actually trades compute for memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.dfgraph import DFGraph
from ..core.schedule import (ScheduledResult, checkpoint_all_schedule,
                             no_recompute_schedule)
from ..core.simulator import schedule_peak_memory
from ..solvers.warm import WarmSeed, min_feasible_budget_floor, warm_seed_from_result
from .options import SolverOptions

__all__ = ["ParetoPoint", "ParetoFront", "trace_pareto_frontier"]

#: Relative cost tolerance for declaring a segment flat.  Matches the default
#: MIP gap order of magnitude: two gap-optimal endpoint costs within this band
#: are the same frontier step for every practical purpose.
FLAT_RTOL = 2e-4


@dataclass(frozen=True)
class ParetoPoint:
    """One probed budget on the frontier."""

    budget: float
    feasible: bool
    compute_cost: float
    peak_memory: int
    solver_status: str

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "feasible": self.feasible,
            "compute_cost": self.compute_cost,
            "peak_memory": self.peak_memory,
            "solver_status": self.solver_status,
        }


@dataclass
class ParetoFront:
    """The traced frontier: probed points plus tracing metadata.

    ``points`` is sorted by ascending budget and includes infeasible probes
    (they delimit the feasibility boundary).  ``solver_calls`` counts *fresh*
    solver invocations spent on the trace (cache hits are free), which is the
    number a dense grid should be compared against.
    """

    graph_name: str
    strategy: str
    low: float
    high: float
    resolution: float
    points: List[ParetoPoint] = field(default_factory=list)
    solver_calls: int = 0
    solve_time_s: float = 0.0

    @property
    def feasible_points(self) -> List[ParetoPoint]:
        return [p for p in self.points if p.feasible]

    def knees(self, rtol: float = FLAT_RTOL) -> List[ParetoPoint]:
        """The first (cheapest-budget) point of each distinct cost step."""
        out: List[ParetoPoint] = []
        for point in self.feasible_points:
            if not out or abs(point.compute_cost - out[-1].compute_cost) > (
                rtol * max(abs(out[-1].compute_cost), 1.0)
            ):
                out.append(point)
        return out

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "strategy": self.strategy,
            "low": self.low,
            "high": self.high,
            "resolution": self.resolution,
            "solver_calls": self.solver_calls,
            "solve_time_s": self.solve_time_s,
            "num_points": len(self.points),
            "points": [p.to_dict() for p in self.points],
        }


def trace_pareto_frontier(
    service,
    graph: DFGraph,
    strategy: str = "checkmate_ilp",
    *,
    low: Optional[float] = None,
    high: Optional[float] = None,
    resolution: Optional[float] = None,
    options: Optional[SolverOptions] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> ParetoFront:
    """Trace the frontier of ``strategy`` on ``graph`` to ``resolution`` bytes.

    Defaults: ``high`` is the no-recompute peak (at and above it nothing
    needs recomputation, so the front is flat at ``sum(C)``), ``low`` is the
    arithmetic minimum-feasible-budget floor of the integral formulation, and
    ``resolution`` is 1/64 of the span.  The recursion probes both endpoints,
    then splits any segment that (a) is wider than ``resolution`` and (b) is
    not provably flat -- endpoints feasible with equal cost -- nor provably
    empty (upper endpoint infeasible: by monotonicity the whole segment is).

    An explicit ``high`` above the no-recompute peak is probed at the peak
    first; when that probe costs ``sum(C)`` it is the one point of the flat
    step up to ``high``, and ``high`` itself is not probed.  A strategy that
    does not reach ``sum(C)`` there (a heuristic) gets ``high`` probed and
    bisected as well, and the checkpoint-all peak then bounds its default.
    The returned front's ``high`` is the top budget actually probed.

    The high endpoint is probed first so every later (smaller-budget) probe
    has a solved larger budget to warm-seed from, with or without a cache.
    """
    spec = service.registry.get(strategy)
    if not spec.has_budget_knob:
        raise ValueError(f"strategy {strategy!r} has no budget knob to trace")
    ceiling = high
    if ceiling is None:
        ceiling = float(schedule_peak_memory(graph, checkpoint_all_schedule(graph)))
    flat_from = float(schedule_peak_memory(graph, no_recompute_schedule(graph)))
    if low is None:
        low = min(float(min_feasible_budget_floor(graph)), ceiling)
    low, ceiling = float(low), float(ceiling)
    if ceiling < low:
        raise ValueError(f"pareto range is empty: low={low} > high={ceiling}")
    top = min(max(flat_from, low), ceiling)
    if resolution is None:
        resolution = max((top - low) / 64.0, 1.0)
    resolution = float(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")

    evaluated: Dict[float, ScheduledResult] = {}
    seeds: Dict[float, Optional[WarmSeed]] = {}  # by source budget
    calls_before = service.statistics()["solver_calls"]
    time_spent = 0.0

    def warm_seed(budget: float) -> Optional[WarmSeed]:
        """The tightened incumbent of the nearest feasible larger probe."""
        above = [b for b, r in evaluated.items() if b > budget and r.feasible]
        if not spec.warm_start_capable or not above:
            return None
        source = min(above)
        if source not in seeds:
            seeds[source] = warm_seed_from_result(graph, evaluated[source])
        return seeds[source]

    def probe(budget: float) -> ScheduledResult:
        nonlocal time_spent
        budget = float(budget)
        if budget not in evaluated:
            result = service.solve(graph, strategy, budget, options,
                                   should_cancel=should_cancel,
                                   warm_start=warm_seed(budget))
            evaluated[budget] = result
            time_spent += result.solve_time_s or 0.0
        return evaluated[budget]

    def flat(a: ScheduledResult, c: ScheduledResult) -> bool:
        if not (a.feasible and c.feasible):
            return False
        scale = max(abs(a.compute_cost), abs(c.compute_cost), 1.0)
        return abs(a.compute_cost - c.compute_cost) <= FLAT_RTOL * scale

    def bisect(lo_b: float, hi_b: float) -> None:
        if hi_b - lo_b <= resolution:
            return
        res_lo, res_hi = evaluated[lo_b], evaluated[hi_b]
        if flat(res_lo, res_hi):
            return  # monotone cost: the whole segment is one frontier step
        if not res_hi.feasible:
            return  # infeasible at the top => infeasible everywhere below
        mid = (lo_b + hi_b) / 2.0
        probe(mid)
        # Upper half first: its endpoints are both already solved, and solving
        # high-to-low keeps a solved larger budget above every later probe.
        bisect(mid, hi_b)
        bisect(lo_b, mid)

    # Endpoint order matters: high first, so the floor probe (and every
    # midpoint) can warm-seed from a larger budget's incumbent.
    high = top
    at_top = probe(top)
    if ceiling > top and not (at_top.feasible and at_top.compute_cost
                              <= graph.total_cost() * (1 + FLAT_RTOL)):
        high = ceiling
        probe(ceiling)
        bisect(top, ceiling)
    probe(low)
    if top > low:
        bisect(low, top)

    points = [
        ParetoPoint(
            budget=b,
            feasible=bool(r.feasible),
            compute_cost=float(r.compute_cost),
            peak_memory=int(r.peak_memory),
            solver_status=r.solver_status,
        )
        for b, r in sorted(evaluated.items())
    ]
    return ParetoFront(
        graph_name=graph.name,
        strategy=strategy,
        low=low,
        high=high,
        resolution=resolution,
        points=points,
        solver_calls=service.statistics()["solver_calls"] - calls_before,
        solve_time_s=time_spent,
    )
