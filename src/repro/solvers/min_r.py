"""Minimal-recomputation completion: solve for ``R`` given a fixed ``S``.

Several parts of the system fix the checkpoint policy first and then need the
cheapest feasible recomputation matrix:

* phase two of the LP-rounding approximation (Algorithm 2, §5.2),
* every baseline heuristic -- the paper implements baselines "as a static
  policy for the decision variable S and then solve[s] for the lowest-cost
  recomputation schedule" (§6.2), and
* the AP / linearized generalizations of Appendix B, where the optimal ``R``
  given ``S`` is found by graph traversal in ``O(|V||E|)``.

Given ``S``, an entry ``R[t, i] = 1`` is *necessary* exactly when (a) it is the
frontier node of stage ``t``, (b) the value must be produced in stage ``t`` to
satisfy a checkpoint ``S[t+1, i] = 1`` that is not already covered by
``S[t, i]``, or (c) some node recomputed later in stage ``t`` consumes ``v_i``
and ``v_i`` is not checkpointed.  Setting only those entries yields the unique
minimal ``R`` (every 1 is forced), hence the conditionally optimal completion.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduleMatrices

__all__ = ["solve_min_r", "min_r_rows", "checkpoint_set_to_schedule", "solve_min_r_schedule"]


def solve_min_r(graph: DFGraph, S: np.ndarray) -> ScheduleMatrices:
    """Compute the minimal feasible ``R`` for a fixed binary checkpoint matrix ``S``.

    Parameters
    ----------
    graph:
        The data-flow graph.
    S:
        ``(n, n)`` 0/1 checkpoint matrix (frontier-advancing layout: strictly
        lower triangular).  Rows above the diagonal are ignored/cleared.

    Returns
    -------
    :class:`ScheduleMatrices` with the given ``S`` (made strictly lower
    triangular) and the conditionally optimal ``R``.
    """
    n = graph.size
    S = np.asarray(S, dtype=np.uint8).copy()
    if S.shape != (n, n):
        raise ValueError(f"S must be ({n}, {n}), got {S.shape}")
    # Enforce the frontier-advancing structural zeros: no checkpoints into the
    # first stage and nothing at/above the diagonal.
    S[np.triu_indices(n, k=0)] = 0
    S[0, :] = 0

    Sb = S.astype(bool)
    S_next = np.zeros_like(Sb)
    S_next[:-1] = Sb[1:]
    Rb = min_r_rows(graph, Sb, S_next, np.arange(n))
    return ScheduleMatrices(Rb.astype(np.uint8), S)


def min_r_rows(graph: DFGraph, S_rows: np.ndarray, S_next: np.ndarray,
               stages: np.ndarray) -> np.ndarray:
    """The minimal ``R`` rows of the given stages, as a boolean block.

    Row ``k`` is stage ``stages[k]`` with checkpoints ``S_rows[k]`` in and
    ``S_next[k]`` out (the next stage's ``S`` row; zeros after the last
    stage).  A stage's minimal ``R`` reads nothing else, so any stacking of
    rows -- a whole schedule or a few stages of many candidate ``S`` edits --
    completes in one pass.
    """
    # Every row shares the same propagation rules, so the per-stage scan is
    # run for all rows at once, column by column:
    #
    # * (8a) frontier nodes and (1c) checkpoint-feeding entries seed R;
    # * (1b) closes the computed set under dependencies.  Columns are swept in
    #   reverse topological order, which finalizes column j before any parent
    #   column (< j) is read -- the same single-pass argument as scanning
    #   ``j = t..0`` within one stage.
    #
    # All marks land strictly below the frontier seed (parents precede
    # children), so the lower-triangular structure is preserved.
    stages = np.asarray(stages)
    Rb = S_next & ~S_rows  # (1c)
    Rb[np.arange(stages.size), stages] = True  # (8a) frontier nodes
    for j in range(int(stages.max(initial=0)), 0, -1):
        preds = graph.predecessors(j)
        if preds:
            preds = list(preds)
            Rb[:, preds] |= Rb[:, j, None] & ~S_rows[:, preds]
    return Rb


def checkpoint_set_to_schedule(graph: DFGraph, checkpoints: set[int] | list[int]) -> ScheduleMatrices:
    """Lift a *static* checkpoint set into frontier-advancing ``(R, S)`` matrices.

    Heuristics like Chen et al.'s sqrt(n) select a single set of nodes to keep
    resident for the whole execution.  In the paper's representation this means
    ``S[t, i] = 1`` for every checkpointed ``i`` in every stage after ``i`` has
    first been computed (stage ``i``), after which :func:`solve_min_r` restores
    dependency feasibility with minimal recomputation.
    """
    n = graph.size
    ckpt = set(int(c) for c in checkpoints)
    S = np.zeros((n, n), dtype=np.uint8)
    for i in ckpt:
        if not (0 <= i < n):
            raise ValueError(f"checkpoint node {i} outside graph")
        S[i + 1:, i] = 1
    return solve_min_r(graph, S)


def solve_min_r_schedule(
    graph: DFGraph,
    budget: Optional[float] = None,
    *,
    checkpoints: Iterable[int] = (),
    strategy_name: str = "min-r",
) -> "ScheduledResult":
    """Uniform-signature driver: min-R completion of an explicit checkpoint set.

    Exposes the conditionally optimal ``R``-for-fixed-``S`` solve behind the
    standard ``solve(graph, budget, **options) -> ScheduledResult`` contract so
    that hand-picked (or externally computed) checkpoint policies can be run,
    cached and swept through the solve service exactly like any strategy.
    ``budget`` only determines reported feasibility; the checkpoint set itself
    is taken as given.
    """
    from ..core.simulator import schedule_peak_memory
    from ..utils.timer import Timer
    from .common import build_scheduled_result

    with Timer() as timer:
        matrices = checkpoint_set_to_schedule(graph, set(checkpoints))
        peak = schedule_peak_memory(graph, matrices)
    feasible = budget is None or peak <= budget
    return build_scheduled_result(
        strategy_name, graph, matrices,
        budget=int(budget) if budget is not None else None,
        feasible=feasible, solve_time_s=timer.elapsed,
        solver_status="ok" if feasible else "over-budget",
        peak_memory=peak,
        extra={"checkpoints": sorted(set(int(c) for c in checkpoints))},
    )
