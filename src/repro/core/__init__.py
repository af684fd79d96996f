"""Core substrate: data-flow graphs, schedules, plans and simulators."""

from .dfgraph import DFGraph, GraphError, NodeInfo
from .graph_utils import (
    ancestors,
    articulation_points,
    descendants,
    linear_graph,
    linearized_chain_edges,
    random_layered_dag,
    transitive_closure,
)
from .plan import (
    AllocateRegister,
    ComputeNode,
    DeallocateRegister,
    ExecutionPlan,
    PlanError,
    Statement,
)
from .schedule import (
    ScheduleMatrices,
    ScheduledResult,
    StrategyNotApplicableError,
    checkpoint_all_schedule,
    checkpoint_last_node_schedule,
    no_recompute_schedule,
    schedule_compute_cost,
    validate_correctness_constraints,
)
from .scheduler import compute_free_events, generate_execution_plan, hoist_deallocations
from .simulator import (
    MemoryTrace,
    PlanSimulationError,
    schedule_peak_memory,
    simulate_plan,
    simulate_schedule_memory,
)

__all__ = [
    "DFGraph",
    "GraphError",
    "NodeInfo",
    "ancestors",
    "articulation_points",
    "descendants",
    "linear_graph",
    "linearized_chain_edges",
    "random_layered_dag",
    "transitive_closure",
    "AllocateRegister",
    "ComputeNode",
    "DeallocateRegister",
    "ExecutionPlan",
    "PlanError",
    "Statement",
    "ScheduleMatrices",
    "ScheduledResult",
    "StrategyNotApplicableError",
    "checkpoint_all_schedule",
    "no_recompute_schedule",
    "checkpoint_last_node_schedule",
    "schedule_compute_cost",
    "validate_correctness_constraints",
    "compute_free_events",
    "generate_execution_plan",
    "hoist_deallocations",
    "MemoryTrace",
    "PlanSimulationError",
    "schedule_peak_memory",
    "simulate_plan",
    "simulate_schedule_memory",
]
