"""Optimal rematerialization via mixed-integer linear programming (paper §4).

:func:`solve_ilp_rematerialization` is the reproduction of Checkmate's core
solver: it builds the MILP of Eq. (9) (or the unpartitioned Eq. (8) variant)
as a :class:`~repro.solvers.compiled.CompiledFormulation` and hands it to the
HiGHS branch-and-cut solver bundled with SciPy -- the drop-in replacement for
the Gurobi/COIN-OR solvers used in the paper -- through
:func:`repro.solvers.highs.milp`, which can start HiGHS from an incumbent.
The optimal ``(R, S)`` matrices are then packaged with their cost and peak
memory (the execution plan is lowered on first access to
``ScheduledResult.plan``).

Certify before searching, cheapest certificate first.  Every
frontier-advancing schedule computes each node at least once (Eq. 8a) and
node costs are non-negative, so ``sum(C)`` is a lower bound on the optimum.

1. **Liveness.**  The no-recompute schedule
   (:func:`~repro.core.schedule.no_recompute_schedule`) costs exactly
   ``sum(C)``; when its simulated peak fits the budget it is optimal, and it
   is returned as ``gap-certified`` (``extra["certificate"] == "liveness"``)
   before any formulation is compiled or LP solved.
2. **LP gap.**  Otherwise the solve fetches the LP relaxation at the full
   budget (§5.1) from the process-wide single-flight
   :class:`~repro.solvers.rounding_portfolio.LPRelaxationCache`.  Its optimum
   is a lower bound on the integer optimum, and its two-phase rounding (§5.2,
   the portfolio's ``threshold_sweep``) is a feasible incumbent.  The
   incumbent is the cheaper of that rounding and any fitting warm seed; when
   it is within ``mip_gap`` of the bound it is gap-optimal -- the same
   guarantee HiGHS stops at -- and is returned as ``gap-certified``
   (``extra["certificate"] == "lp-gap"``) without branch-and-cut.  An
   LP-infeasible budget is ILP-infeasible too.
3. **Repair incumbent.**  When that misses, a schedule repaired from the
   cell alone (:func:`~repro.solvers.repair.repair_schedule`: checkpoints
   dropped greedily from the no-recompute schedule until it fits) joins the
   incumbents, and the cheapest is checked against the bound once more.
4. **HiGHS with the start.**  Only the remaining cells reach
   branch-and-cut, started from the incumbent's ``R``/``S`` entries.  HiGHS
   never returns anything costlier; when it stops at a limit on nothing
   cheaper, the incumbent is reported as such.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from scipy.optimize import Bounds, LinearConstraint

from ..core.dfgraph import DFGraph
from ..core.schedule import (
    ScheduleMatrices,
    ScheduledResult,
    no_recompute_schedule,
    schedule_compute_cost,
)
from ..core.simulator import schedule_peak_memory
from ..obs.trace import get_tracer
from ..utils.timer import Timer
from .common import build_scheduled_result
from .compiled import InfeasibleBudgetError, formulation_and_arrays
from .highs import milp
from .repair import repair_schedule
from .rounding_portfolio import get_lp_relaxation_cache, solve_rounding_portfolio

__all__ = ["solve_ilp_rematerialization", "liveness_certified_result",
           "ILP_STRATEGY_NAME"]

ILP_STRATEGY_NAME = "checkmate-ilp"

#: scipy.optimize.milp status codes (shared by the drop-in ``milp``).
_STATUS_NAMES = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}


class _Incumbent(NamedTuple):
    """A feasible schedule in hand before HiGHS runs."""

    matrices: ScheduleMatrices
    cost: float
    source: str  # "warm" (a fitting seed), "rounding" (of the LP) or "repair"


def liveness_certified_result(graph: DFGraph, budget: float, *,
                              strategy_name: str = ILP_STRATEGY_NAME
                              ) -> Optional[ScheduledResult]:
    """The no-recompute schedule as a proven-optimal result, if it fits.

    It costs ``sum(C)``, which no frontier-advancing schedule undercuts, so
    a fitting one is optimal.  ``None`` when its peak exceeds ``budget``.
    """
    with Timer() as timer:
        matrices = no_recompute_schedule(graph)
        peak = schedule_peak_memory(graph, matrices)
    if peak > budget:
        return None
    return build_scheduled_result(
        strategy_name, graph, matrices, budget=int(budget), feasible=True,
        solve_time_s=timer.elapsed, solver_status="gap-certified",
        peak_memory=peak,
        extra={"certificate": "liveness",
               "objective_lower_bound": graph.total_cost(),
               "proven_optimal": True},
    )


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
    should_cancel: Optional[Callable[[], bool]] = None,
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
        is returned with ``solver_status='time_limit'``.  The LP relaxation
        gets the same limit.
    mip_gap:
        Relative optimality gap at which the solver may stop, and at which an
        incumbent is certified against the LP-relaxation lower bound.
    frontier_advancing:
        Use the partitioned formulation (§4.6).  Setting this to ``False``
        reproduces the much slower unpartitioned baseline of Appendix A, which
        goes straight to HiGHS (no certificate).
    num_stages:
        Stage count for the unpartitioned variant (defaults to ``graph.size``).
    warm_start:
        A :class:`~repro.solvers.warm.WarmSeed` from a neighboring (larger)
        budget.  A proven-optimal seed that fits is reused outright
        (``warm-reused-optimal``, no LP).  An unproven fitting seed is one
        more incumbent next to the LP rounding and the repair: it is tried
        first, the rounding only runs when the seed alone does not meet the
        certificate, and the cheapest incumbent is HiGHS's start.
    should_cancel:
        Zero-argument hook polled from HiGHS's interrupt callbacks; once it
        returns true HiGHS stops and the solve reports ``cancelled`` with
        the best schedule in hand (never cached by the solve service).

    Returns
    -------
    :class:`ScheduledResult`.  ``solver_status`` is ``gap-certified`` when the
    no-recompute schedule fits or the cheapest incumbent met ``mip_gap``
    against the LP bound (``extra`` then holds ``certificate`` --
    ``"liveness"`` or ``"lp-gap"`` -- ``objective_lower_bound`` and
    ``proven_optimal``); otherwise it is HiGHS's verdict (``cancelled`` when
    the hook stopped it), suffixed ``-warm-incumbent`` /
    ``-rounding-incumbent`` / ``-repair-incumbent`` when HiGHS stopped
    short of optimality on nothing cheaper than the incumbent.  ``feasible``
    is ``False`` when infeasibility is proven or no schedule was found
    within the limit.
    """
    if frontier_advancing:
        certified = liveness_certified_result(graph, budget,
                                              strategy_name=strategy_name)
        if certified is not None:
            return certified
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

    incumbent = (_Incumbent(seed.matrices, seed.objective, "warm")
                 if seed is not None else None)

    with Timer() as certify_timer:
        if frontier_advancing:
            lp = get_lp_relaxation_cache().get(graph, budget, time_limit_s=time_limit_s)
            bound = lp.objective * (1.0 + mip_gap) if lp.status == "optimal" else None
            if lp.status.startswith("infeasible"):
                # LP-infeasible implies ILP-infeasible; solve_lp_relaxation
                # has already fed the learned-infeasibility memo.
                return build_scheduled_result(
                    strategy_name, graph, None, budget=int(budget), feasible=False,
                    solve_time_s=lp.solve_time_s, solver_status="infeasible-lp",
                    extra={"formulation": formulation.describe()},
                )

            def certified() -> bool:
                return (incumbent is not None and bound is not None
                        and incumbent.cost <= bound)

            if lp.feasible and not certified():
                rounding = solve_rounding_portfolio(
                    graph, budget, scheme="threshold_sweep", allowance=0.0,
                    lp_result=lp)
                if rounding.feasible and (incumbent is None
                                          or rounding.compute_cost < incumbent.cost):
                    incumbent = _Incumbent(rounding.matrices, rounding.compute_cost,
                                           "rounding")
            if not certified():
                # The LP certificate missed: repair a fitting schedule from
                # the cell itself, a last chance to certify and HiGHS's start.
                with get_tracer().span("repair"):
                    repaired = repair_schedule(graph, budget)
                if repaired is not None:
                    cost = schedule_compute_cost(graph, repaired)
                    if incumbent is None or cost < incumbent.cost:
                        incumbent = _Incumbent(repaired, cost, "repair")
            if certified():
                extra = {"formulation": formulation.describe(),
                         "certificate": "lp-gap",
                         "objective_lower_bound": lp.objective,
                         "proven_optimal": True}
                if incumbent.source == "warm":
                    extra["warm_start"] = {"used": True, "kind": "bound_skip",
                                           "source_budget": seed.source_budget}
                return build_scheduled_result(
                    strategy_name, graph, incumbent.matrices, budget=int(budget),
                    feasible=True, solve_time_s=certify_timer.elapsed,
                    solver_status="gap-certified",
                    frontier_advancing=frontier_advancing, extra=extra,
                )

    constraints = LinearConstraint(arrays.A, arrays.constraint_lb, arrays.constraint_ub)
    bounds = Bounds(arrays.lb, arrays.ub)
    # HiGHS starts from the incumbent's R and S (the frontier layout only:
    # an unpartitioned formulation may have other than n stages).
    start = (formulation.start_entries(incumbent.matrices)
             if incumbent is not None and frontier_advancing else None)

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
            start=start,
            should_cancel=should_cancel,
        )
    solve_time_s = certify_timer.elapsed + timer.elapsed

    status = _STATUS_NAMES.get(res.status, f"solver-status-{res.status}")
    if status != "optimal" and should_cancel is not None and should_cancel():
        status = "cancelled"
    extra = {"formulation": formulation.describe()}
    if seed is not None:
        extra["warm_start"] = {"used": True, "kind": "seeded",
                               "source_budget": seed.source_budget}

    def incumbent_result():
        # HiGHS stopped on nothing better than the incumbent we already
        # hold (or on nothing at all); it is feasible at this budget.
        return build_scheduled_result(
            strategy_name, graph, incumbent.matrices, budget=int(budget),
            feasible=True, solve_time_s=solve_time_s,
            solver_status=f"{status}-{incumbent.source}-incumbent",
            frontier_advancing=frontier_advancing, extra=extra,
        )

    if res.x is None:
        if incumbent is not None:
            return incumbent_result()
        if status == "infeasible" and frontier_advancing:
            # Feed the learned-infeasibility memo: every budget at or
            # below this one is infeasible too and will short-circuit.
            formulation.note_infeasible_budget(budget, integral=True)
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=solve_time_s, solver_status=status, extra=extra,
        )

    extra.update({
        "objective_lower_bound": formulation.unnormalized_bound(
            getattr(res, "mip_dual_bound", None)),
        "mip_gap": getattr(res, "mip_gap", None),
        "mip_node_count": getattr(res, "mip_node_count", None),
    })
    with get_tracer().span("decode"):
        matrices = formulation.decode_matrices(res.x)
    if incumbent is not None:
        cost = schedule_compute_cost(graph, matrices)
        if cost > incumbent.cost or (status != "optimal" and cost >= incumbent.cost):
            return incumbent_result()
    return build_scheduled_result(
        strategy_name,
        graph,
        matrices,
        budget=int(budget),
        feasible=True,
        solve_time_s=solve_time_s,
        solver_status=status,
        frontier_advancing=frontier_advancing,
        extra=extra,
    )
