"""Repair a fitting incumbent below the no-recompute peak.

Under the no-recompute peak the LP rounding often fits nothing, and HiGHS
then spends its time searching for a first schedule.  :func:`repair_schedule`
builds one from the cell alone -- no LP, no earlier solve -- so the exact
solver can hand HiGHS a start:

1. Start from :func:`~repro.core.schedule.no_recompute_schedule`.
2. While the peak exceeds the budget, drop checkpoints at the peak stage
   ``t``.  For every value ``i`` resident there, the candidate moves drop
   its whole run of consecutive checkpoints around ``t``, or the run's head
   (up to ``t``) or tail (from ``t``).  Each move is completed with the
   minimal ``R`` and scored by added cost per byte it removes from stage
   ``t``'s peak; the cheapest is applied.
3. Restore: re-add dropped checkpoints one at a time while some re-add
   lowers the cost and keeps its stages within the budget.

Both passes evaluate moves row-locally.  Stage ``t``'s minimal ``R`` row
(:func:`~repro.solvers.min_r.min_r_rows`) and its ``U`` profile
(:func:`~repro.core.simulator.stage_memory_profiles`) read only ``S[t]`` and
``S[t + 1]``, so editing ``S[lo..hi, i]`` changes only stages
``lo - 1 .. hi``.  Every candidate of one step is stacked into one block of
rows and evaluated in a single pass.

The result is the schedule :func:`~repro.solvers.min_r.solve_min_r` derives
from the final ``S``; ties resolve by node and move order, so a cell always
repairs to the same schedule.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduleMatrices, no_recompute_schedule
from ..core.simulator import stage_memory_profiles
from .compiled import _ramp
from .min_r import min_r_rows

__all__ = ["repair_schedule", "evaluate_moves"]

#: A checkpoint edit: clear or set ``S[lo..hi, node]``.
Move = Tuple[int, int, int]
#: Per stacked row: minimal ``R`` row, peak memory and compute cost.
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def evaluate_moves(graph: DFGraph, S: np.ndarray, moves: List[Move], *,
                   value: bool = False) -> Tuple[np.ndarray, np.ndarray, Rows]:
    """Row-locally evaluate edits setting ``S[lo..hi, node] = value``.

    Returns ``(stages, owner, (R, peak, cost))`` flattened over the stacked
    rows: ``stages[k]`` is the stage of row ``k``, ``owner[k]`` the index of
    its move, and the last three are that row's minimal ``R``, peak memory
    and compute cost under the edited ``S``.  Rows of one move are
    contiguous, covering stages ``lo - 1 .. hi`` (from 0 when ``lo`` is 0).
    """
    n = graph.size
    nodes = np.array([m[0] for m in moves], dtype=np.int64)
    lo = np.array([m[1] for m in moves], dtype=np.int64)
    hi = np.array([m[2] for m in moves], dtype=np.int64)
    first = np.maximum(lo - 1, 0)
    counts = hi - first + 1
    owner = np.repeat(np.arange(len(moves)), counts)
    stages = first[owner] + _ramp(counts)
    col = nodes[owner]
    in_rows = (stages >= lo[owner]) & (stages <= hi[owner])
    in_next = (stages + 1 >= lo[owner]) & (stages + 1 <= hi[owner])
    # Overlapping moves share rows: one stage edited the same way in the
    # same column is evaluated once.
    key = ((col * n + stages) * 2 + in_rows) * 2 + in_next
    _, unique, inverse = np.unique(key, return_index=True, return_inverse=True)
    u_stages, u_col = stages[unique], col[unique]
    S_next_all = np.zeros_like(S)
    S_next_all[:-1] = S[1:]
    S_rows = S[u_stages]
    S_next = S_next_all[u_stages]
    rows = np.arange(unique.size)
    edit = in_rows[unique]
    S_rows[rows[edit], u_col[edit]] = value
    edit = in_next[unique]
    S_next[rows[edit], u_col[edit]] = value
    R, peak, cost = _stage_rows(graph, S_rows, S_next, u_stages)
    return stages, owner, (R[inverse], peak[inverse], cost[inverse])


def _stage_rows(graph: DFGraph, S_rows: np.ndarray, S_next: np.ndarray,
                stages: np.ndarray) -> Rows:
    """Minimal ``R``, peak memory and compute cost of stacked stage rows."""
    R = min_r_rows(graph, S_rows, S_next, stages)
    peak = stage_memory_profiles(graph, R, S_rows, S_next).max(axis=1)
    return R, peak, R @ graph.cost_vector


def _run(column: np.ndarray, t: int) -> Tuple[int, int]:
    """The maximal run of ``column`` that is true and contains ``t``."""
    lo = t
    while lo > 0 and column[lo - 1]:
        lo -= 1
    hi = t
    while hi + 1 < column.size and column[hi + 1]:
        hi += 1
    return lo, hi


def repair_schedule(graph: DFGraph, budget: float) -> Optional[ScheduleMatrices]:
    """A schedule within ``budget`` built by greedy checkpoint dropping.

    ``None`` when no move lowers the peak stage any further while it is
    still over budget.  See the module docstring.
    """
    n = graph.size
    S = no_recompute_schedule(graph).S.astype(bool)
    S_next = np.zeros_like(S)
    S_next[:-1] = S[1:]
    R, row_peak, row_cost = _stage_rows(graph, S, S_next, np.arange(n))
    dropped = np.zeros_like(S)

    def apply(stages, sel, R_new, peak_new, cost_new, edit, value):
        node, lo, hi = edit
        S[lo:hi + 1, node] = value
        dropped[lo:hi + 1, node] = not value
        R[stages[sel]] = R_new[sel]
        row_peak[stages[sel]] = peak_new[sel]
        row_cost[stages[sel]] = cost_new[sel]

    while True:
        t = int(np.argmax(row_peak))
        if np.ceil(row_peak[t]) <= budget:
            break
        moves: List[Move] = []
        for i in np.flatnonzero(S[t]):
            lo, hi = _run(S[:, i], t)
            for span in ((lo, hi), (lo, t), (t, hi)):
                if (int(i),) + span not in moves:
                    moves.append((int(i),) + span)
        if not moves:
            return None
        stages, owner, (R_new, peak_new, cost_new) = evaluate_moves(graph, S, moves)
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        added = np.add.reduceat(cost_new - row_cost[stages], starts)
        at_t = stages == t
        removed = row_peak[t] - peak_new[at_t]
        useful = removed > 0
        if not useful.any():
            return None
        score = np.where(useful, added / np.where(useful, removed, 1.0), np.inf)
        best = int(np.argmin(score))
        apply(stages, owner == best, R_new, peak_new, cost_new, moves[best], False)

    # Restore pass: re-add single dropped checkpoints while one saves cost.
    while dropped.any():
        cand_t, cand_i = np.nonzero(dropped)
        moves = [(int(i), int(t), int(t)) for t, i in zip(cand_t, cand_i)]
        stages, owner, (R_new, peak_new, cost_new) = evaluate_moves(
            graph, S, moves, value=True)
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        saved = -np.add.reduceat(cost_new - row_cost[stages], starts)
        fits = np.maximum.reduceat(np.ceil(peak_new), starts) <= budget
        gain = np.where(fits, saved, 0.0)
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            break
        apply(stages, owner == best, R_new, peak_new, cost_new, moves[best], True)

    return ScheduleMatrices(R.astype(np.uint8), S.astype(np.uint8))
