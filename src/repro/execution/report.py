"""Predicted-vs-measured cross-check of an executed schedule.

The paper's validation loop solves for an ``(R, S)`` schedule under a memory
budget, lowers it, runs it, and checks that the run really stayed under the
budget while computing the same numbers.  :func:`build_execution_report`
performs that loop's verification half for one
:class:`~repro.core.schedule.ScheduledResult`:

* **memory** -- the executor's measured peak live bytes (plus the graph's
  constant input/parameter overhead) is compared against the plan replay of
  :func:`~repro.core.simulator.simulate_plan` and the schedule-level
  ``U``-recurrence prediction the solver reported;
* **compute** -- measured per-node (re)compute counts are compared against
  the plan's statement counts;
* **numerics** -- every recorded output is compared bit-for-bit against
  checkpoint-all execution of the same bound functions, and tensor sizes are
  checked against the graph's declared per-node memory.

``ExecutionReport.ok`` is the single verdict CI smoke jobs assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional

import numpy as np

from ..core.schedule import ScheduledResult
from ..core.simulator import simulate_plan
from .executor import ExecutionResult, execute_checkpoint_all, execute_plan
from .ops import NumericGraph

__all__ = ["ExecutionReport", "build_execution_report"]


@dataclass
class ExecutionReport:
    """Outcome of executing a solved schedule over NumPy tensors.

    ``measured_peak_bytes`` includes the graph's constant overhead (inputs
    plus parameters, paper Eq. 2) so it is directly comparable to the solver
    budget and to the simulator predictions, which account the same way.
    """

    strategy: str
    graph_name: str
    num_nodes: int
    budget: Optional[int]
    feasible: bool
    executed: bool
    solver_status: str
    constant_overhead: int
    # Predictions.
    predicted_schedule_peak: int = 0   # solver's U-recurrence peak for (R, S)
    predicted_plan_peak: int = 0       # simulate_plan replay of the lowered plan
    planned_num_compute: int = 0
    # Measurements.
    measured_peak_bytes: int = 0
    measured_num_compute: int = 0
    checkpoint_all_peak_bytes: int = 0
    # Cross-check verdicts.
    peak_matches_plan: bool = False
    peak_within_schedule: bool = False
    plan_matches_schedule: bool = False
    recompute_matches_plan: bool = False
    outputs_match: bool = False
    within_budget: Optional[bool] = None
    max_abs_error: float = float("inf")
    size_mismatched_nodes: List[int] = field(default_factory=list)
    compared_outputs: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """All cross-checks passed (and the budget, when one was given)."""
        return (self.executed and self.peak_matches_plan
                and self.peak_within_schedule and self.plan_matches_schedule
                and self.recompute_matches_plan and self.outputs_match
                and not self.size_mismatched_nodes
                and self.within_budget is not False)

    @property
    def memory_saving(self) -> float:
        """Measured peak as a fraction of the checkpoint-all peak (< 1 is a win)."""
        if self.checkpoint_all_peak_bytes <= 0:
            return float("nan")
        return self.measured_peak_bytes / self.checkpoint_all_peak_bytes

    def to_dict(self) -> dict:
        """JSON-safe rendering (the ``POST /v1/execute`` result payload)."""
        return {
            "strategy": self.strategy,
            "graph_name": self.graph_name,
            "num_nodes": int(self.num_nodes),
            "budget": None if self.budget is None else int(self.budget),
            "feasible": bool(self.feasible),
            "executed": bool(self.executed),
            "solver_status": self.solver_status,
            "constant_overhead": int(self.constant_overhead),
            "predicted_schedule_peak": int(self.predicted_schedule_peak),
            "predicted_plan_peak": int(self.predicted_plan_peak),
            "planned_num_compute": int(self.planned_num_compute),
            "measured_peak_bytes": int(self.measured_peak_bytes),
            "measured_num_compute": int(self.measured_num_compute),
            "checkpoint_all_peak_bytes": int(self.checkpoint_all_peak_bytes),
            "peak_matches_plan": bool(self.peak_matches_plan),
            "peak_within_schedule": bool(self.peak_within_schedule),
            "plan_matches_schedule": bool(self.plan_matches_schedule),
            "recompute_matches_plan": bool(self.recompute_matches_plan),
            "outputs_match": bool(self.outputs_match),
            "within_budget": self.within_budget,
            "max_abs_error": float(self.max_abs_error),
            "size_mismatched_nodes": [int(n) for n in self.size_mismatched_nodes],
            "compared_outputs": int(self.compared_outputs),
            "error": self.error,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionReport":
        """Inverse of :meth:`to_dict` (``ok`` is derived, so it is dropped)."""
        return cls(**{f.name: payload[f.name] for f in fields(cls)})

    def summary(self) -> str:
        """One-paragraph human rendering (what ``repro execute`` prints)."""
        if not self.executed:
            return (f"{self.strategy} on {self.graph_name}: NOT EXECUTED "
                    f"({self.error or self.solver_status})")
        budget = "unbounded" if self.budget is None else f"{self.budget:,} B"
        lines = [
            f"{self.strategy} on {self.graph_name} ({self.num_nodes} nodes), "
            f"budget {budget}:",
            f"  measured peak   {self.measured_peak_bytes:,} B "
            f"(plan predicted {self.predicted_plan_peak:,} B, schedule "
            f"{self.predicted_schedule_peak:,} B, checkpoint-all "
            f"{self.checkpoint_all_peak_bytes:,} B)",
            f"  computes        {self.measured_num_compute} "
            f"(plan {self.planned_num_compute}, once-each {self.num_nodes})",
            f"  outputs         {self.compared_outputs} compared, "
            f"max |error| {self.max_abs_error:.3g}",
            f"  verdict         {'OK' if self.ok else 'MISMATCH'}"
            + ("" if self.within_budget is None
               else f" (within budget: {self.within_budget})"),
        ]
        return "\n".join(lines)


def build_execution_report(
    numeric: NumericGraph,
    result: ScheduledResult,
) -> ExecutionReport:
    """Execute ``result``'s plan over ``numeric`` and cross-check everything.

    Infeasible results (or results without matrices) come back with
    ``executed=False`` and the solver status in ``error``; for feasible ones
    reading ``result.plan`` lowers the ``(R, S)`` matrices on first use.
    Every node output the plan computes is compared against checkpoint-all
    execution.
    """
    graph = numeric.graph
    report = ExecutionReport(
        strategy=result.strategy,
        graph_name=graph.name,
        num_nodes=graph.size,
        budget=None if result.budget is None else int(result.budget),
        feasible=result.feasible,
        executed=False,
        solver_status=result.solver_status,
        constant_overhead=graph.constant_overhead,
        predicted_schedule_peak=int(result.peak_memory),
    )
    if not result.feasible or result.matrices is None:
        report.error = f"no feasible schedule to execute ({result.solver_status})"
        return report

    plan = result.plan
    trace = simulate_plan(graph, plan)
    measured = execute_plan(numeric, plan)
    reference = execute_checkpoint_all(numeric)

    report.executed = True
    report.predicted_plan_peak = int(trace.peak_memory)
    report.planned_num_compute = plan.total_computations()
    report.measured_peak_bytes = int(measured.peak_live_bytes + graph.constant_overhead)
    report.measured_num_compute = measured.num_compute
    report.checkpoint_all_peak_bytes = int(reference.peak_live_bytes
                                           + graph.constant_overhead)

    report.peak_matches_plan = report.measured_peak_bytes == report.predicted_plan_peak
    # The schedule-level U-recurrence prediction is an upper bound on the
    # lowered plan: un-hoisted plans mirror the U accounting exactly, and the
    # §4.9 deallocation code motion can only lower the high-water mark.  A
    # measured peak above it means the lowering (not just the replay) broke.
    report.peak_within_schedule = (
        report.measured_peak_bytes <= report.predicted_schedule_peak)
    # Lowering consistency: the plan must (re)compute exactly what the (R, S)
    # schedule decided -- catches plans that drifted from their matrices.
    scheduled_counts = {
        node: int(count)
        for node, count in enumerate(result.matrices.recomputation_counts())
        if count
    }
    report.plan_matches_schedule = plan.compute_counts() == scheduled_counts
    report.recompute_matches_plan = (
        measured.num_compute == report.planned_num_compute
        and measured.compute_counts == plan.compute_counts())
    report.within_budget = (None if result.budget is None
                            else report.measured_peak_bytes <= result.budget)
    report.size_mismatched_nodes = [
        node for node, value in reference.outputs.items()
        if value.nbytes != graph.memory(node)
    ]
    report.outputs_match, report.max_abs_error, report.compared_outputs = \
        _compare_outputs(measured, reference)
    return report


def _compare_outputs(measured: ExecutionResult, reference: ExecutionResult):
    """Bit-for-bit comparison of every recorded output against the reference."""
    compared = 0
    max_err = 0.0
    exact = True
    for node, value in measured.outputs.items():
        ref = reference.outputs.get(node)
        if ref is None:  # pragma: no cover - reference computes every node
            continue
        compared += 1
        if value.shape != ref.shape or value.dtype != ref.dtype:
            exact = False
            max_err = float("inf")
            continue
        if not np.array_equal(value, ref):
            # Only mismatching tensors pay for the float64 upcast + diff;
            # the expected (bit-equal) path contributes max_err = 0.
            exact = False
            diff = np.abs(np.asarray(value, dtype=np.float64)
                          - np.asarray(ref, dtype=np.float64))
            if diff.size:
                max_err = max(max_err, float(diff.max()))
    return exact and compared > 0, max_err, compared
