"""repro: a from-scratch reproduction of Checkmate (MLSys 2020).

Checkmate formulates tensor rematerialization -- trading recomputation for
activation memory during neural-network training -- as a mixed-integer linear
program, and shows that optimal schedules beat prior checkpointing heuristics
across architectures and budgets while enabling much larger batch sizes.

The public API mirrors the system's pipeline:

1. build a forward graph (:mod:`repro.models`), differentiate it
   (:func:`repro.autodiff.make_training_graph`) and attach costs
   (:mod:`repro.cost_model`);
2. solve for a schedule with the optimal MILP
   (:func:`repro.solvers.solve_ilp_rematerialization`), the LP-rounding
   portfolio (:func:`repro.solvers.solve_rounding_portfolio`, whose
   ``fixed_half`` scheme is the paper's approximation) or one of
   the baseline heuristics (:mod:`repro.baselines`) -- or drive any of them
   uniformly through the solve service (:mod:`repro.service`), which adds a
   content-addressed plan cache and parallel (strategy, budget) sweeps.
   Every exact strategy runs on HiGHS over the compiled formulation
   (:class:`repro.solvers.CompiledFormulation`); the reference
   implementations the test-suite checks it against live in
   ``tests/oracles/``, outside the package;
3. lower the schedule to an execution plan, simulate its memory profile
   (:mod:`repro.core`) or execute it over NumPy tensors
   (:mod:`repro.execution`);
4. regenerate the paper's tables and figures (:mod:`repro.experiments`);
5. or skip the Python entirely: run the solve-as-a-service daemon
   (:mod:`repro.server`, ``repro serve``) and submit jobs over JSON/HTTP --
   priority queueing, single-flighted duplicates and the shared plan cache
   included.

Quickstart
----------
>>> from repro import (make_training_graph, FlopCostModel,
...                    solve_ilp_rematerialization)
>>> from repro.models import vgg16
>>> graph = FlopCostModel().apply(make_training_graph(vgg16(batch_size=4, resolution=64)))
>>> result = solve_ilp_rematerialization(graph, budget=0.5 * graph.total_activation_memory()
...                                      + graph.constant_overhead, time_limit_s=60)
>>> result.feasible
True
"""

from .autodiff import BackwardConfig, make_training_graph
from .baselines import STRATEGIES, solve_checkpoint_all
from .core import (
    DFGraph,
    ExecutionPlan,
    NodeInfo,
    ScheduleMatrices,
    ScheduledResult,
    checkpoint_all_schedule,
    generate_execution_plan,
    schedule_peak_memory,
    simulate_plan,
    validate_correctness_constraints,
)
from .cost_model import (
    CPU_DEVICE,
    NVIDIA_V100,
    DeviceSpec,
    FlopCostModel,
    ProfileCostModel,
    UniformCostModel,
    memory_breakdown,
)
from .execution import (
    ExecutionReport,
    NumericGraph,
    bind_numeric_graph,
    build_execution_report,
    execute_checkpoint_all,
    execute_plan,
)
from .service import (
    PlanCache,
    SolveCancelledError,
    SolveService,
    SolverOptions,
    SolverRegistry,
    SolverSpec,
    SweepCell,
    default_registry,
    get_default_service,
    graph_content_hash,
)
from .solvers import (
    CompiledFormulation,
    solve_ilp_rematerialization,
    solve_lp_relaxation,
    solve_min_r,
)

__version__ = "1.0.0"

#: Serving-layer exports resolved lazily (PEP 562): the daemon drags in
#: http.server/urllib plus the full preset/model stack, a cost library
#: consumers that never serve should not pay at ``import repro`` time.
_SERVER_EXPORTS = ("JobQueue", "ServeClient", "SolveServer")


def __getattr__(name: str):
    if name in _SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "BackwardConfig",
    "make_training_graph",
    "STRATEGIES",
    "solve_checkpoint_all",
    "DFGraph",
    "ExecutionPlan",
    "NodeInfo",
    "ScheduleMatrices",
    "ScheduledResult",
    "checkpoint_all_schedule",
    "generate_execution_plan",
    "schedule_peak_memory",
    "simulate_plan",
    "validate_correctness_constraints",
    "ExecutionReport",
    "NumericGraph",
    "bind_numeric_graph",
    "build_execution_report",
    "execute_checkpoint_all",
    "execute_plan",
    "CPU_DEVICE",
    "NVIDIA_V100",
    "DeviceSpec",
    "FlopCostModel",
    "ProfileCostModel",
    "UniformCostModel",
    "memory_breakdown",
    "JobQueue",
    "ServeClient",
    "SolveServer",
    "PlanCache",
    "SolveCancelledError",
    "SolveService",
    "SolverOptions",
    "SolverRegistry",
    "SolverSpec",
    "SweepCell",
    "default_registry",
    "get_default_service",
    "graph_content_hash",
    "CompiledFormulation",
    "solve_ilp_rematerialization",
    "solve_lp_relaxation",
    "solve_min_r",
]
