"""Figure 1: memory over time for retain-all versus rematerialized execution.

The paper opens with a 32-layer network whose checkpoint-all execution needs
30 GB of activation memory; rematerializing reduces the high-water mark by
21 GB for a modest runtime increase.  This module replays both schedules'
execution plans through the simulator to produce the memory-over-time traces
behind that figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from ..core.dfgraph import DFGraph
from ..core.schedule import checkpoint_all_schedule
from ..core.scheduler import generate_execution_plan
from ..core.simulator import MemoryTrace, simulate_plan
from ..service import SolveService, SolverOptions, get_default_service

__all__ = ["MemoryTimeline", "memory_timeline"]


@dataclass
class MemoryTimeline:
    """Memory-over-time traces for the two policies of Figure 1."""

    graph_name: str
    budget: int
    retain_all: MemoryTrace
    rematerialized: Optional[MemoryTrace]
    rematerialize_feasible: bool

    @property
    def peak_reduction_bytes(self) -> int:
        if self.rematerialized is None:
            return 0
        return int(self.retain_all.peak_memory - self.rematerialized.peak_memory)

    @property
    def runtime_increase(self) -> float:
        if self.rematerialized is None or self.retain_all.total_cost == 0:
            return float("nan")
        return self.rematerialized.total_cost / self.retain_all.total_cost


def memory_timeline(
    graph: DFGraph,
    budget: Optional[int] = None,
    *,
    use_ilp: bool = True,
    ilp_time_limit_s: float = 60.0,
    service: Optional[SolveService] = None,
) -> MemoryTimeline:
    """Produce the Figure-1 traces for a training graph.

    Parameters
    ----------
    budget:
        Rematerialization budget; defaults to 45% of the checkpoint-all peak
        (roughly the reduction shown in the paper's Figure 1).
    use_ilp:
        Solve optimally (default) or with the LP-rounding approximation.
    """
    service = service or get_default_service()
    retain_plan = generate_execution_plan(graph, checkpoint_all_schedule(graph), hoist=False)
    retain_trace = simulate_plan(graph, retain_plan)

    if budget is None:
        budget = int(graph.constant_overhead
                     + 0.45 * (retain_trace.peak_memory - graph.constant_overhead))

    result = service.solve(graph, "checkmate_ilp" if use_ilp else "checkmate_approx",
                           budget, SolverOptions(time_limit_s=ilp_time_limit_s))

    remat_trace = None
    if result.feasible:
        remat_trace = simulate_plan(graph, result.plan)

    return MemoryTimeline(
        graph_name=graph.name,
        budget=int(budget),
        retain_all=retain_trace,
        rematerialized=remat_trace,
        rematerialize_feasible=result.feasible,
    )
