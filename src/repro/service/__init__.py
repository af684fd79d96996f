"""Unified solve-service layer: registry, plan cache and parallel sweeps.

This package is the single entry point for "solve this graph under that
(strategy, budget) configuration" -- the operation every experiment, example
and benchmark in the reproduction is built from:

* :mod:`repro.service.registry` -- one :class:`SolverRegistry` absorbing the
  Table 1 strategies *and* the loose solvers behind a uniform
  ``solve(graph, budget, **kwargs)`` protocol, with typed
  :class:`SolverOptions` replacing per-callsite kwarg special-casing;
* :mod:`repro.service.hashing` -- canonical content hashing of
  :class:`~repro.core.dfgraph.DFGraph`;
* :mod:`repro.service.cache` -- the content-addressed :class:`PlanCache`
  (in-memory LRU + optional on-disk JSON store);
* :mod:`repro.service.solve` -- :class:`SolveService` with cached
  :meth:`~SolveService.solve` and the parallel :meth:`~SolveService.sweep`
  fan-out executor.

Quick use::

    from repro.service import SolveService, SolverOptions

    service = SolveService()
    result = service.solve(graph, "checkmate_ilp", budget,
                           SolverOptions(time_limit_s=60))
    results = service.sweep(graph, service.grid(
        ["checkmate_approx", "linearized_greedy"], budgets))
"""

from ..solvers.compiled import FormulationCache, get_formulation_cache, set_formulation_cache
from .cache import PlanCache, PlanCacheKey
from .hashing import graph_content_hash
from .options import SolverOptions
from .pareto import ParetoFront, ParetoPoint, trace_pareto_frontier
from .registry import Solver, SolverRegistry, SolverSpec, default_registry
from .solve import (
    SolveCancelledError,
    SolveService,
    SweepCell,
    get_default_service,
    parallel_map,
    set_default_service,
)

__all__ = [
    "SolveCancelledError",
    "FormulationCache",
    "get_formulation_cache",
    "set_formulation_cache",
    "PlanCache",
    "PlanCacheKey",
    "graph_content_hash",
    "SolverOptions",
    "ParetoFront",
    "ParetoPoint",
    "trace_pareto_frontier",
    "Solver",
    "SolverRegistry",
    "SolverSpec",
    "default_registry",
    "SolveService",
    "SweepCell",
    "get_default_service",
    "parallel_map",
    "set_default_service",
]
