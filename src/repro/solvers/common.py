"""Shared helpers for turning solver/baseline outputs into :class:`ScheduledResult`."""

from __future__ import annotations

from typing import Optional

from ..core.dfgraph import DFGraph
from ..core.schedule import (
    ScheduleMatrices,
    ScheduledResult,
    schedule_compute_cost,
    validate_correctness_constraints,
)
from ..core.simulator import schedule_peak_memory
from ..obs.trace import get_tracer

__all__ = ["build_scheduled_result"]


def build_scheduled_result(
    strategy: str,
    graph: DFGraph,
    matrices: Optional[ScheduleMatrices],
    *,
    budget: Optional[int] = None,
    feasible: bool = True,
    solve_time_s: float = 0.0,
    solver_status: str = "ok",
    frontier_advancing: bool = True,
    extra: Optional[dict] = None,
    peak_memory: Optional[int] = None,
) -> ScheduledResult:
    """Package a schedule into a :class:`ScheduledResult` with derived metrics.

    Computes the schedule's compute cost (objective 1a) and peak memory (via
    the paper's ``U`` accounting) and asserts the correctness constraints so
    that no infeasible schedule silently enters the evaluation pipeline.  The
    execution plan is not lowered here: :attr:`ScheduledResult.plan` derives
    it on first access.

    ``peak_memory`` lets callers that already simulated the schedule (every
    heuristic decides feasibility from the peak before packaging) pass the
    measured value instead of paying a second ``U``-recurrence evaluation.
    """
    if matrices is None:
        return ScheduledResult(
            strategy=strategy,
            graph=graph,
            matrices=None,
            compute_cost=float("inf"),
            peak_memory=0,
            feasible=False,
            budget=budget,
            solve_time_s=solve_time_s,
            solver_status=solver_status,
            extra=extra or {},
        )

    with get_tracer().span("validate"):
        violations = validate_correctness_constraints(
            graph, matrices, frontier_advancing=frontier_advancing
        )
    if violations:
        raise ValueError(
            f"strategy {strategy!r} produced an incorrect schedule: "
            + "; ".join(violations[:5])
        )

    cost = schedule_compute_cost(graph, matrices)
    peak = peak_memory if peak_memory is not None else schedule_peak_memory(graph, matrices)
    return ScheduledResult(
        strategy=strategy,
        graph=graph,
        matrices=matrices,
        compute_cost=cost,
        peak_memory=peak,
        feasible=feasible,
        budget=budget,
        solve_time_s=solve_time_s,
        solver_status=solver_status,
        extra=extra or {},
    )
