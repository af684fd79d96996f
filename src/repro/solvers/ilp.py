"""Optimal rematerialization via mixed-integer linear programming (paper §4).

:func:`solve_ilp_rematerialization` is the reproduction of Checkmate's core
solver: it builds the MILP of Eq. (9) (or the unpartitioned Eq. (8) variant)
as a :class:`~repro.solvers.compiled.CompiledFormulation` and hands it to the
HiGHS branch-and-cut solver bundled with SciPy -- the drop-in replacement for
the Gurobi/COIN-OR solvers used in the paper.  The optimal ``(R, S)`` matrices
are then packaged with their cost and peak memory (the execution plan is
lowered on first access to ``ScheduledResult.plan``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.optimize import Bounds

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduledResult
from ..obs.trace import get_tracer
from ..utils.timer import Timer
from .common import build_scheduled_result
from .compiled import formulation_and_arrays
from .formulation import InfeasibleBudgetError

__all__ = ["solve_ilp_rematerialization", "ILP_STRATEGY_NAME"]

ILP_STRATEGY_NAME = "checkmate-ilp"

# scipy.optimize.milp status codes.
_STATUS_OPTIMAL = 0
_STATUS_LIMIT = 1
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


def solve_ilp_rematerialization(
    graph: DFGraph,
    budget: float,
    *,
    time_limit_s: float = 3600.0,
    mip_gap: float = 1e-4,
    frontier_advancing: bool = True,
    num_stages: Optional[int] = None,
    strategy_name: str = ILP_STRATEGY_NAME,
    warm_start: Optional["WarmSeed"] = None,
) -> ScheduledResult:
    """Solve the rematerialization MILP for a graph under a memory budget.

    Parameters
    ----------
    graph:
        Training graph (forward + backward) with per-node cost and memory.
    budget:
        Memory budget in bytes (same unit as the graph's node memories).
    time_limit_s:
        Wall-clock limit handed to the branch-and-cut solver; the paper uses
        3600 s.  If the limit is hit with an incumbent, the incumbent schedule
        is returned with ``solver_status='time_limit'``.
    mip_gap:
        Relative optimality gap at which the solver may stop.
    frontier_advancing:
        Use the partitioned formulation (§4.6).  Setting this to ``False``
        reproduces the much slower unpartitioned baseline of Appendix A.
    num_stages:
        Stage count for the unpartitioned variant (defaults to ``graph.size``).
    warm_start:
        A :class:`~repro.solvers.warm.WarmSeed` from a neighboring (larger)
        budget.  SciPy's ``milp`` cannot accept an incumbent, so the seed is
        exploited around the solver instead: a proven-optimal seed that fits is
        reused outright (``warm-reused-optimal``); an unproven one is certified
        against the cell's LP-relaxation lower bound and, when its objective
        already matches within ``mip_gap``, the integer solve is skipped
        (``warm-bound-skip``); otherwise the MILP runs cold and the seed only
        backstops a time-limit miss.

    Returns
    -------
    :class:`ScheduledResult`; ``feasible`` is ``False`` when the solver proves
    infeasibility or finds no incumbent within the limit.
    """
    try:
        # The budget-independent arrays come from the per-process
        # FormulationCache (one compile per graph, shared across a whole
        # budget sweep); only the U-variable bounds are budget-bound.
        formulation, arrays = formulation_and_arrays(
            graph, budget, frontier_advancing=frontier_advancing, num_stages=num_stages
        )
    except InfeasibleBudgetError as exc:
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solver_status=f"infeasible-budget: {exc}",
        )

    if frontier_advancing:
        # Learned-infeasibility memo and the arithmetic budget floor: both are
        # monotone in budget, so cells at or below a known-infeasible budget
        # (or meaningfully below the floor) never need to reach HiGHS.
        if formulation.known_infeasible_budget(budget, integral=True):
            return build_scheduled_result(
                strategy_name, graph, None, budget=int(budget), feasible=False,
                solver_status="infeasible-memo",
                extra={"infeasible_shortcut": "memo"},
            )
        from .warm import budget_floor_margin

        floor = formulation.budget_floor()
        if budget < floor - budget_floor_margin(graph):
            formulation.note_infeasible_budget(budget, integral=True)
            return build_scheduled_result(
                strategy_name, graph, None, budget=int(budget), feasible=False,
                solver_status="infeasible-below-floor",
                extra={"infeasible_shortcut": "floor", "budget_floor": floor},
            )

    seed = warm_start if (warm_start is not None and warm_start.fits(budget)) else None
    if seed is not None and seed.proven_optimal:
        # Monotonicity: the seed is (gap-)optimal at its larger source budget
        # and fits this one, so it is (gap-)optimal here too.  Zero HiGHS work.
        return build_scheduled_result(
            strategy_name, graph, seed.matrices, budget=int(budget), feasible=True,
            solver_status="warm-reused-optimal",
            frontier_advancing=frontier_advancing,
            extra={"formulation": formulation.describe(), "proven_optimal": True,
                   "warm_start": {"used": True, "kind": "incumbent_prune",
                                  "source_budget": seed.source_budget}},
        )
    if seed is not None:
        # LP-certificate fast exit: the relaxation's objective is a valid lower
        # bound on the integer optimum.  If the unproven seed already matches
        # it within the MIP gap, it is gap-optimal -- skip the integer solve.
        from .lp_relaxation import solve_lp_relaxation

        with get_tracer().span("lp-bound"):
            lp = solve_lp_relaxation(
                graph, budget, frontier_advancing=frontier_advancing,
                num_stages=num_stages, time_limit_s=time_limit_s,
            )
        if lp.feasible and seed.objective <= lp.objective * (1.0 + mip_gap):
            return build_scheduled_result(
                strategy_name, graph, seed.matrices, budget=int(budget),
                feasible=True, solve_time_s=lp.solve_time_s,
                solver_status="warm-bound-skip",
                frontier_advancing=frontier_advancing,
                extra={"formulation": formulation.describe(),
                       "objective_lower_bound": lp.objective,
                       "proven_optimal": True,
                       "warm_start": {"used": True, "kind": "bound_skip",
                                      "source_budget": seed.source_budget}},
            )

    constraints = LinearConstraint(arrays.A, arrays.constraint_lb, arrays.constraint_ub)
    bounds = Bounds(arrays.lb, arrays.ub)

    with Timer() as timer, get_tracer().span("ilp-solve", budget=float(budget)):
        res = milp(
            c=arrays.c,
            constraints=constraints,
            integrality=arrays.integrality,
            bounds=bounds,
            options={
                "time_limit": float(time_limit_s),
                "mip_rel_gap": float(mip_gap),
                "presolve": True,
            },
        )

    status_map = {
        _STATUS_OPTIMAL: "optimal",
        _STATUS_LIMIT: "time_limit",
        _STATUS_INFEASIBLE: "infeasible",
        _STATUS_UNBOUNDED: "unbounded",
    }
    status = status_map.get(res.status, f"solver-status-{res.status}")

    if res.x is None:
        if status == "infeasible" and frontier_advancing:
            # Feed the learned-infeasibility memo: every budget at or below
            # this one is infeasible too and will short-circuit from now on.
            formulation.note_infeasible_budget(budget, integral=True)
        if seed is not None:
            # The seed is feasible at this budget, so "no incumbent within the
            # time limit" still has a valid schedule to fall back on.
            return build_scheduled_result(
                strategy_name, graph, seed.matrices, budget=int(budget),
                feasible=True, solve_time_s=timer.elapsed,
                solver_status=f"{status}-warm-incumbent",
                frontier_advancing=frontier_advancing,
                extra={"formulation": formulation.describe(),
                       "warm_start": {"used": True, "kind": "seeded",
                                      "source_budget": seed.source_budget}},
            )
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=timer.elapsed, solver_status=status,
            extra={"formulation": formulation.describe()},
        )

    with get_tracer().span("decode"):
        matrices = formulation.decode_matrices(np.asarray(res.x))
    extra = {
        "formulation": formulation.describe(),
        "objective_lower_bound": getattr(res, "mip_dual_bound", None),
        "mip_gap": getattr(res, "mip_gap", None),
        "mip_node_count": getattr(res, "mip_node_count", None),
    }
    if seed is not None:
        extra["warm_start"] = {"used": True, "kind": "seeded",
                               "source_budget": seed.source_budget}
        if formulation.objective_value(np.asarray(res.x)) > seed.objective:
            # HiGHS stopped (time limit / gap) on an incumbent worse than the
            # seed we already hold; keep the better schedule.
            return build_scheduled_result(
                strategy_name, graph, seed.matrices, budget=int(budget),
                feasible=True, solve_time_s=timer.elapsed,
                solver_status=f"{status}-warm-incumbent",
                frontier_advancing=frontier_advancing, extra=extra,
            )
    return build_scheduled_result(
        strategy_name,
        graph,
        matrices,
        budget=int(budget),
        feasible=True,
        solve_time_s=timer.elapsed,
        solver_status=status,
        frontier_advancing=frontier_advancing,
        extra=extra,
    )
