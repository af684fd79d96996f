"""LP relaxation of the rematerialization MILP (paper §5.1).

Relaxing the integrality constraints turns problem (9) into a linear program
solvable in polynomial time.  Its optimum is a lower bound on the integral
optimum (used for integrality-gap measurements, Appendix A) and its fractional
``(R*, S*)`` solution seeds the two-phase rounding approximation of §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint

from ..core.dfgraph import DFGraph
from ..obs.trace import get_tracer
from ..utils.timer import Timer
from .compiled import InfeasibleBudgetError, formulation_and_arrays
from .highs import milp

__all__ = ["LPRelaxationResult", "solve_lp_relaxation"]


@dataclass
class LPRelaxationResult:
    """Fractional solution of the relaxed rematerialization problem.

    Attributes
    ----------
    R_fractional, S_fractional:
        ``(T, n)`` float matrices in ``[0, 1]``.
    objective:
        Total recomputation cost of the fractional solution -- a lower bound on
        the integral optimum.
    feasible:
        Whether the relaxation admitted any solution under the budget.
    """

    graph_name: str
    budget: float
    R_fractional: Optional[np.ndarray]
    S_fractional: Optional[np.ndarray]
    objective: float
    feasible: bool
    solve_time_s: float
    status: str


def solve_lp_relaxation(
    graph: DFGraph,
    budget: float,
    *,
    frontier_advancing: bool = True,
    num_stages: Optional[int] = None,
    time_limit_s: float = 600.0,
) -> LPRelaxationResult:
    """Solve the continuous relaxation of the rematerialization problem.

    The relaxation is obtained by dropping every integrality requirement
    (``R, S, FREE`` in ``[0, 1]``); HiGHS then solves it with its simplex /
    interior-point LP code, mirroring the paper's use of polynomial-time LP
    algorithms (Karmarkar, barrier methods).
    """
    try:
        # Shares the compiled budget-independent arrays with the exact ILP --
        # an approximation call at (1 - eps) * budget re-budgets in O(1)
        # instead of rebuilding the whole constraint matrix.
        formulation, arrays = formulation_and_arrays(
            graph, budget, frontier_advancing=frontier_advancing, num_stages=num_stages
        )
    except InfeasibleBudgetError as exc:
        return LPRelaxationResult(
            graph_name=graph.name, budget=budget, R_fractional=None, S_fractional=None,
            objective=float("inf"), feasible=False, solve_time_s=0.0,
            status=f"infeasible-budget: {exc}",
        )

    if formulation.known_infeasible_budget(budget, integral=False):
        # Learned-infeasibility memo: a smaller-or-equal budget already proved
        # LP-infeasible, so this one is too.  Note the arithmetic budget floor
        # of the *integral* problem does NOT apply here -- fractional FREE lets
        # the relaxation shed parent memory mid-stage, so only budgets HiGHS
        # itself rejected are safe to short-circuit.
        return LPRelaxationResult(
            graph_name=graph.name, budget=budget, R_fractional=None, S_fractional=None,
            objective=float("inf"), feasible=False, solve_time_s=0.0,
            status="infeasible-memo",
        )

    constraints = LinearConstraint(arrays.A, arrays.constraint_lb, arrays.constraint_ub)
    bounds = Bounds(arrays.lb, arrays.ub)
    relaxed_integrality = np.zeros_like(arrays.integrality)

    with Timer() as timer, get_tracer().span("lp-solve", budget=float(budget)):
        res = milp(
            c=arrays.c,
            constraints=constraints,
            integrality=relaxed_integrality,
            bounds=bounds,
            options={"time_limit": float(time_limit_s), "presolve": True},
        )

    if res.x is None:
        proven_infeasible = res.status == 2
        if proven_infeasible:
            # LP-infeasible implies ILP-infeasible; record under both keys so
            # the integral solvers short-circuit as well.
            formulation.note_infeasible_budget(budget, integral=False)
        return LPRelaxationResult(
            graph_name=graph.name, budget=budget, R_fractional=None, S_fractional=None,
            objective=float("inf"), feasible=False, solve_time_s=timer.elapsed,
            status="infeasible" if proven_infeasible else f"status-{res.status}",
        )

    x = np.asarray(res.x)
    R_frac, S_frac = formulation.decode_fractional(x)
    return LPRelaxationResult(
        graph_name=graph.name,
        budget=budget,
        R_fractional=R_frac,
        S_fractional=S_frac,
        objective=formulation.objective_value(x),
        feasible=True,
        solve_time_s=timer.elapsed,
        status="optimal" if res.status == 0 else f"status-{res.status}",
    )
