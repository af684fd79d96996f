"""Appendix A: integrality gap and the value of frontier-advancing stages.

The paper reports that, for an 8-layer linear network (17-node training graph)
with unit costs and memories at a budget of 4, the unpartitioned MILP takes
9.4 hours in Gurobi while the frontier-advancing (partitioned) MILP solves in
0.23 seconds -- and that the partitioning tightens the LP relaxation, reducing
the measured integrality gap from 21.56 to 1.18.  This module solves both
formulations, plus their LP relaxations, and reports the gap and solve times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..autodiff import BackwardConfig, make_training_graph
from ..core.dfgraph import DFGraph
from ..core.graph_utils import linear_graph
from ..solvers.ilp import solve_ilp_rematerialization
from ..solvers.lp_relaxation import solve_lp_relaxation

__all__ = ["IntegralityGapResult", "integrality_gap_experiment", "unit_linear_training_graph"]


@dataclass
class IntegralityGapResult:
    """Integrality gaps and solve times for one problem instance."""

    graph_name: str
    budget: int
    partitioned_ilp_cost: Optional[float]
    partitioned_lp_cost: Optional[float]
    partitioned_solve_time_s: float
    unpartitioned_ilp_cost: Optional[float]
    unpartitioned_lp_cost: Optional[float]
    unpartitioned_solve_time_s: float

    @property
    def partitioned_gap(self) -> Optional[float]:
        if not self.partitioned_ilp_cost or not self.partitioned_lp_cost:
            return None
        return self.partitioned_ilp_cost / self.partitioned_lp_cost

    @property
    def unpartitioned_gap(self) -> Optional[float]:
        if not self.unpartitioned_ilp_cost or not self.unpartitioned_lp_cost:
            return None
        return self.unpartitioned_ilp_cost / self.unpartitioned_lp_cost

    def summary(self) -> str:
        pg = f"{self.partitioned_gap:.2f}" if self.partitioned_gap else "-"
        ug = f"{self.unpartitioned_gap:.2f}" if self.unpartitioned_gap else "-"
        return (
            f"{self.graph_name} @ budget {self.budget}: "
            f"partitioned gap {pg} (solved in {self.partitioned_solve_time_s:.2f}s), "
            f"unpartitioned gap {ug} (solved in {self.unpartitioned_solve_time_s:.2f}s)"
        )


def unit_linear_training_graph(num_layers: int = 8) -> DFGraph:
    """The Appendix-A instance: a unit-cost, unit-memory linear training graph.

    An ``L``-layer forward chain differentiates into a ``2L + 1``-node training
    graph (L forward nodes, the loss folded into the last, and L+1 gradient
    nodes); for L = 8 this is the paper's 17-node instance.
    """
    forward = linear_graph(num_layers, cost=1.0, memory=1, name=f"unit-linear-{num_layers}")
    training = make_training_graph(forward, BackwardConfig(backward_cost_factor=1.0,
                                                           grad_needs_consumer_output=False))
    # Unit costs and memories on *every* node, as in the paper's instance.
    return training.with_costs([1.0] * training.size).with_memories([1] * training.size)


def integrality_gap_experiment(
    graph: Optional[DFGraph] = None,
    budget: int = 4,
    *,
    time_limit_s: float = 300.0,
    include_unpartitioned: bool = True,
    unpartitioned_stages: Optional[int] = None,
) -> IntegralityGapResult:
    """Measure integrality gaps for the partitioned and unpartitioned MILPs."""
    graph = graph if graph is not None else unit_linear_training_graph(8)

    part_ilp = solve_ilp_rematerialization(graph, budget, time_limit_s=time_limit_s,
                                           frontier_advancing=True)
    part_lp = solve_lp_relaxation(graph, budget, frontier_advancing=True)

    unpart_cost = unpart_lp_cost = None
    unpart_time = 0.0
    if include_unpartitioned:
        stages = unpartitioned_stages or graph.size
        unpart_ilp = solve_ilp_rematerialization(
            graph, budget, time_limit_s=time_limit_s, frontier_advancing=False,
            num_stages=stages,
        )
        unpart_lp = solve_lp_relaxation(graph, budget, frontier_advancing=False,
                                        num_stages=stages)
        unpart_cost = unpart_ilp.compute_cost if unpart_ilp.feasible else None
        unpart_lp_cost = unpart_lp.objective if unpart_lp.feasible else None
        unpart_time = unpart_ilp.solve_time_s

    return IntegralityGapResult(
        graph_name=graph.name,
        budget=int(budget),
        partitioned_ilp_cost=part_ilp.compute_cost if part_ilp.feasible else None,
        partitioned_lp_cost=part_lp.objective if part_lp.feasible else None,
        partitioned_solve_time_s=part_ilp.solve_time_s,
        unpartitioned_ilp_cost=unpart_cost,
        unpartitioned_lp_cost=unpart_lp_cost,
        unpartitioned_solve_time_s=unpart_time,
    )
