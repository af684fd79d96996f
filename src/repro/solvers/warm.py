"""Warm-start machinery for incremental budget sweeps.

Adjacent budgets of a sweep differ in a single bound slice of the compiled
formulation (see :mod:`repro.solvers.compiled`), so their optimal schedules are
highly correlated.  This module provides the three primitives the incremental
sweep path is built from:

* :class:`WarmSeed` / :func:`warm_seed_from_result` -- package a previously
  solved schedule (typically the neighboring *larger* budget's incumbent) as a
  seed for the next cell.  Monotonicity does the heavy lifting: the optimal
  objective is non-increasing in budget, so a schedule that is optimal at
  budget ``b'`` and *fits* within ``b < b'`` is optimal at ``b`` too, and any
  feasible schedule that fits is at least a valid incumbent/cutoff.
* :func:`tighten_schedule` -- prune checkpoints the schedule never uses before
  measuring the seed's peak.  MILP solvers return *an* optimum, not the
  minimal-memory one: with the budget constraint slack, HiGHS happily keeps
  dead values resident, which would make the raw incumbent's peak sit near the
  source budget and never fit the next cell down.  Dropping dead checkpoint
  chains (and re-deriving the minimal ``R`` via
  :func:`~repro.solvers.min_r.solve_min_r`) never increases cost or peak, and
  empirically drops the peak to the bottom of the current objective step --
  which is exactly what makes cross-budget reuse fire.
* :func:`min_feasible_budget_floor` -- an O(|E|) lower bound on the feasible
  budget of the *integral* frontier-advancing formulation: when stage ``t``
  computes its frontier node, every parent of ``t`` must be resident and none
  of them is freeable before ``v_t`` is evaluated, so
  ``overhead + max_t (M_t + sum_{i in parents(t)} M_i)`` memory is unavoidable.
  Cells below the floor are provably infeasible and never need to reach HiGHS.
  The floor does **not** bound the LP relaxation (fractional ``FREE`` lets the
  LP free parents partially), so the relaxation must not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import (
    ScheduleMatrices,
    ScheduledResult,
    schedule_compute_cost,
)
from ..core.simulator import schedule_peak_memory
from .min_r import solve_min_r

__all__ = [
    "WarmSeed",
    "tighten_schedule",
    "warm_seed_from_result",
    "min_feasible_budget_floor",
    "budget_floor_margin",
]


@dataclass(frozen=True)
class WarmSeed:
    """A previously solved schedule offered as a starting point for a new cell.

    ``objective``/``peak_memory`` describe ``matrices`` itself (after
    tightening), not the solve it came from.  ``proven_optimal`` means the
    source solver proved optimality (within its MIP gap) at ``source_budget``;
    by monotonicity the seed is then optimal for any smaller budget it fits.
    """

    matrices: ScheduleMatrices
    objective: float
    peak_memory: int
    proven_optimal: bool
    source_budget: Optional[float]
    source_status: str

    def fits(self, budget: float) -> bool:
        return self.peak_memory <= budget


def tighten_schedule(graph: DFGraph, matrices: ScheduleMatrices) -> ScheduleMatrices:
    """Drop checkpoints a schedule never consumes; never worse, usually tighter.

    A checkpoint ``S[t, i]`` is *useful* iff stage ``t`` recomputes a child of
    ``i``, or it feeds a later useful checkpoint of ``i`` (the value must
    survive stage ``t`` to be resident at ``t + 1``).  Everything else is dead
    weight the MILP was allowed to keep because the budget constraint was
    slack.  The pruned ``S`` is completed with the conditionally optimal ``R``
    (:func:`solve_min_r`), which can only shrink the recomputation set.

    Falls back to the input matrices in the (theoretically impossible, but
    cheap to guard) case where the rebuilt schedule is costlier or fatter.
    """
    n = graph.size
    S = np.asarray(matrices.S, dtype=bool)
    R = np.asarray(matrices.R, dtype=bool)
    if S.shape != (n, n) or not S.any():
        return matrices
    parents, children = graph.edge_arrays

    # uses[t, i]: stage t computes some child of i, so i must be resident.
    uses = np.zeros((n, n), dtype=np.int64)
    np.add.at(uses, (slice(None), parents), R[:, children].astype(np.int64))
    useful = uses > 0
    for t in range(n - 2, -1, -1):
        useful[t] |= useful[t + 1] & S[t + 1]

    pruned = (S & useful).astype(np.uint8)
    if np.array_equal(pruned, matrices.S):
        return matrices
    tightened = solve_min_r(graph, pruned)
    if (schedule_peak_memory(graph, tightened) > schedule_peak_memory(graph, matrices)
            or schedule_compute_cost(graph, tightened)
            > schedule_compute_cost(graph, matrices)):
        return matrices
    return tightened


#: Solver statuses that certify (gap-)optimality of the returned schedule.
_PROVEN_OPTIMAL_STATUSES = frozenset({
    "optimal", "gap-certified", "warm-reused-optimal",
})


def warm_seed_from_result(graph: DFGraph,
                          result: ScheduledResult) -> Optional[WarmSeed]:
    """Package a solved cell as a :class:`WarmSeed`, or ``None`` if unusable.

    Only feasible results with concrete matrices qualify.  The schedule is
    tightened first (see :func:`tighten_schedule`) so the seed's measured peak
    reflects what the schedule actually needs, not the slack the source budget
    allowed.
    """
    if not result.feasible or result.matrices is None:
        return None
    matrices = tighten_schedule(graph, result.matrices)
    if matrices is result.matrices:
        objective = result.compute_cost
        peak = result.peak_memory
    else:
        objective = schedule_compute_cost(graph, matrices)
        peak = schedule_peak_memory(graph, matrices)
    proven = (result.solver_status in _PROVEN_OPTIMAL_STATUSES
              or bool(result.extra.get("proven_optimal")))
    return WarmSeed(
        matrices=matrices,
        objective=float(objective),
        peak_memory=int(peak),
        proven_optimal=proven,
        source_budget=float(result.budget) if result.budget is not None else None,
        source_status=result.solver_status,
    )


def min_feasible_budget_floor(graph: DFGraph) -> float:
    """Lower bound on any feasible budget of the integral frontier MILP.

    When stage ``t`` evaluates its frontier node ``v_t``, every parent of
    ``v_t`` is resident and -- in the integral formulation -- none can be
    (even partially) freed until after the evaluation, so stage ``t`` needs at
    least ``overhead + M_t + sum_{i in parents(t)} M_i`` bytes.  The bound is
    exact arithmetic on the graph (no solver), hence free to evaluate per
    sweep cell.  It does **not** apply to the LP relaxation, whose fractional
    ``FREE`` variables can shed parent memory mid-stage.
    """
    mem = graph.memory_vector.astype(np.float64)
    parents, children = graph.edge_arrays
    parent_mem = np.zeros(graph.size, dtype=np.float64)
    np.add.at(parent_mem, children, mem[parents])
    return float(graph.constant_overhead + (mem + parent_mem).max())


def budget_floor_margin(graph: DFGraph) -> float:
    """Feasibility-tolerance guard band under the arithmetic budget floor.

    HiGHS enforces primal feasibility to ~1e-7 in the formulation's
    mem-scale-normalized units, so it will report "optimal" for budgets a few
    sub-resolution bytes below the true floor (the returned schedule then
    exceeds the budget by those same few bytes).  The pre-check therefore only
    declares infeasibility when the budget is below ``floor - margin`` with a
    margin 100x that slack -- never disagreeing with what the solver would
    accept, while still short-circuiting every meaningfully infeasible cell.
    """
    return 1e-5 * max(float(graph.memory_vector.max()), 1.0) + 1.0
