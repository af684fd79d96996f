"""A small, dependency-light branch-and-bound MILP solver.

This is *not* the production path (HiGHS via :mod:`repro.solvers.ilp` is), but
an independent exact solver used by the test-suite to cross-check the
formulation and the HiGHS results on tiny graphs.  It implements textbook
LP-based branch-and-bound: solve the continuous relaxation, pick a fractional
binary variable, branch on it (most-fractional first), and prune nodes whose
relaxation bound exceeds the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.dfgraph import DFGraph
from repro.core.schedule import ScheduledResult
from repro.solvers.common import build_scheduled_result
from repro.solvers.compiled import (
    FormulationArrays,
    InfeasibleBudgetError,
    formulation_and_arrays,
)
from repro.utils.timer import Timer

__all__ = [
    "BranchAndBoundResult",
    "solve_branch_and_bound",
    "solve_branch_and_bound_schedule",
]


@dataclass
class BranchAndBoundResult:
    """Solution found by the reference branch-and-bound solver."""

    x: Optional[np.ndarray]
    objective: float
    nodes_explored: int
    proven_optimal: bool
    status: str


def _solve_relaxation(arrays: FormulationArrays, lb: np.ndarray, ub: np.ndarray):
    res = milp(
        c=arrays.c,
        constraints=LinearConstraint(arrays.A, arrays.constraint_lb, arrays.constraint_ub),
        integrality=np.zeros_like(arrays.integrality),
        bounds=Bounds(lb, ub),
        options={"presolve": True},
    )
    return res


def solve_branch_and_bound(
    arrays: FormulationArrays,
    *,
    max_nodes: int = 2000,
    tolerance: float = 1e-6,
    cutoff: Optional[float] = None,
) -> BranchAndBoundResult:
    """Solve a (small) MILP described by :class:`FormulationArrays` exactly.

    Parameters
    ----------
    max_nodes:
        Hard cap on the number of branch-and-bound nodes; if reached the best
        incumbent found so far is returned with ``proven_optimal=False``.
    tolerance:
        Integrality tolerance for deciding whether a relaxation value is
        fractional.
    cutoff:
        Objective value (same units as ``arrays.c @ x``) of an external
        incumbent, e.g. the neighboring budget's warm seed.  The search starts
        with this as its pruning bound, so whole subtrees that cannot beat it
        are discarded without branching.  If the search exhausts without
        finding anything strictly better, the result has ``x=None`` and status
        ``"cutoff-optimal"``: the caller's incumbent -- known feasible by the
        caller -- is optimal within ``tolerance``.
    """
    integer_vars = np.flatnonzero(arrays.integrality > 0)
    best_x: Optional[np.ndarray] = None
    best_obj = float(cutoff) if cutoff is not None else np.inf
    nodes_explored = 0

    # Each stack entry is a (lb, ub) pair of variable bounds.
    stack: List[Tuple[np.ndarray, np.ndarray]] = [(arrays.lb.copy(), arrays.ub.copy())]

    while stack and nodes_explored < max_nodes:
        lb, ub = stack.pop()
        nodes_explored += 1
        res = _solve_relaxation(arrays, lb, ub)
        if res.x is None:
            continue  # infeasible subproblem
        obj = float(arrays.c @ res.x)
        if obj >= best_obj - tolerance:
            continue  # bound: cannot beat the incumbent
        x = np.asarray(res.x)
        frac = np.abs(x[integer_vars] - np.round(x[integer_vars]))
        most_fractional = int(np.argmax(frac))
        if frac[most_fractional] <= tolerance:
            # Integral solution: new incumbent.
            best_x = np.round(x * (arrays.integrality > 0)) + x * (arrays.integrality == 0)
            best_obj = obj
            continue
        var = int(integer_vars[most_fractional])
        value = x[var]
        # Branch: floor branch and ceil branch (LIFO -> dive on the ceil first).
        lb_floor, ub_floor = lb.copy(), ub.copy()
        ub_floor[var] = np.floor(value)
        lb_ceil, ub_ceil = lb.copy(), ub.copy()
        lb_ceil[var] = np.ceil(value)
        stack.append((lb_floor, ub_floor))
        stack.append((lb_ceil, ub_ceil))

    proven = len(stack) == 0
    if best_x is not None:
        status = "optimal" if proven else "node-limit"
    elif proven and cutoff is not None:
        # Exhausted the tree without beating the external incumbent: nothing
        # better than `cutoff` exists (the incumbent itself lives outside this
        # search, so x stays None and the caller reuses its seed).
        status = "cutoff-optimal"
    else:
        status = "infeasible-or-node-limit"
    return BranchAndBoundResult(
        x=best_x,
        objective=best_obj if best_x is not None else np.inf,
        nodes_explored=nodes_explored,
        proven_optimal=proven and (best_x is not None or cutoff is not None),
        status=status,
    )


def solve_branch_and_bound_schedule(
    graph: DFGraph,
    budget: float,
    *,
    max_nodes: int = 2000,
    strategy_name: str = "checkmate-bnb",
    warm_start: Optional["WarmSeed"] = None,
) -> ScheduledResult:
    """Uniform-signature driver: build the MILP for a graph and solve it here.

    This wraps :func:`solve_branch_and_bound` behind the same
    ``solve(graph, budget, **options) -> ScheduledResult`` contract every other
    strategy follows, so the reference solver can be registered with the solve
    service and cross-checked against HiGHS through the ordinary sweep path.
    Only sensible for tiny graphs (tens of nodes).

    ``warm_start`` (a :class:`~repro.solvers.warm.WarmSeed`, typically the
    neighboring larger budget's tightened incumbent) short-circuits the search:
    a proven-optimal seed that fits the budget is reused outright, and an
    unproven one primes the branch-and-bound pruning bound (``cutoff``) so only
    strictly better schedules are ever accepted.
    """
    from repro.solvers.warm import WarmSeed, budget_floor_margin  # noqa: F401 (typing)

    try:
        formulation, arrays = formulation_and_arrays(graph, budget, frontier_advancing=True)
    except InfeasibleBudgetError as exc:
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solver_status=f"infeasible-budget: {exc}",
        )

    if formulation.known_infeasible_budget(budget, integral=True):
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solver_status="infeasible-memo",
            extra={"infeasible_shortcut": "memo"},
        )
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
        # Monotonicity: optimal at the larger source budget and it fits here,
        # so it is optimal here -- no search needed.
        return build_scheduled_result(
            strategy_name, graph, seed.matrices, budget=int(budget), feasible=True,
            solver_status="warm-reused-optimal",
            extra={"nodes_explored": 0, "proven_optimal": True,
                   "warm_start": {"used": True, "kind": "incumbent_prune",
                                  "source_budget": seed.source_budget}},
        )

    cost_scale = max(float(graph.cost_vector.max()), 1e-12)
    cutoff = seed.objective / cost_scale if seed is not None else None
    with Timer() as timer:
        res = solve_branch_and_bound(arrays, max_nodes=max_nodes, cutoff=cutoff)

    if res.x is None and seed is not None:
        # The seed is feasible here, so the MILP is not infeasible: either the
        # search proved nothing beats the seed (cutoff-optimal) or it hit the
        # node limit without improving on it.  Either way the seed stands.
        status = ("warm-cutoff-optimal" if res.status == "cutoff-optimal"
                  else "node-limit-warm-incumbent")
        return build_scheduled_result(
            strategy_name, graph, seed.matrices, budget=int(budget), feasible=True,
            solve_time_s=timer.elapsed, solver_status=status,
            extra={"nodes_explored": res.nodes_explored,
                   "proven_optimal": res.proven_optimal,
                   "warm_start": {"used": True, "kind": "bound_skip",
                                  "source_budget": seed.source_budget}},
        )
    if res.x is None:
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=timer.elapsed, solver_status=res.status,
        )
    matrices = formulation.decode_matrices(np.asarray(res.x))
    extra = {"nodes_explored": res.nodes_explored,
             "proven_optimal": res.proven_optimal}
    if seed is not None:
        extra["warm_start"] = {"used": True, "kind": "seeded",
                               "source_budget": seed.source_budget}
    return build_scheduled_result(
        strategy_name, graph, matrices, budget=int(budget), feasible=True,
        solve_time_s=timer.elapsed, solver_status=res.status,
        extra=extra,
    )
