"""Chen et al. (2016) checkpointing heuristics and their generalizations.

The paper compares against two heuristics from *Training Deep Nets with
Sublinear Memory Cost* (Chen et al., 2016):

* **Chen sqrt(n)** -- split the chain into ``sqrt(n)`` segments and keep one
  checkpoint per segment, giving ``O(sqrt(n))`` memory at the cost of (about)
  one extra forward pass.
* **Chen greedy** -- walk the chain accumulating activation memory and emit a
  checkpoint whenever the running total exceeds a budget parameter ``b``; the
  paper builds a trade-off curve by searching over ``b``.

Both assume a *linear* forward graph, so the paper introduces two
generalizations (Appendix B) which are also implemented here by swapping the
candidate set:

* **AP variants** restrict checkpoint candidates to articulation points of the
  undirected forward graph;
* **Linearized variants** pretend the topological order is a chain and let the
  minimal-recomputation completion restore correctness afterwards.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.graph_utils import articulation_points
from ..core.schedule import ScheduledResult, schedule_compute_cost
from ..core.simulator import schedule_peak_memory
from ..solvers.common import build_scheduled_result
from ..utils.timer import Timer
from .segmenting import forward_candidates, segment_checkpoint_schedule, training_graph_metadata

__all__ = [
    "chen_sqrt_n_checkpoints",
    "chen_greedy_checkpoints",
    "ap_candidates",
    "solve_chen_sqrt_n",
    "solve_chen_greedy",
]


# --------------------------------------------------------------------------- #
# Checkpoint selection
# --------------------------------------------------------------------------- #
def chen_sqrt_n_checkpoints(graph: DFGraph, candidates: Optional[Sequence[int]] = None) -> Set[int]:
    """Select every ``sqrt(n)``-th candidate as a checkpoint.

    ``candidates`` defaults to every forward node; the AP and linearized
    generalizations pass articulation points or the raw topological order.
    """
    cands = sorted(candidates) if candidates is not None else forward_candidates(graph)
    if not cands:
        return set()
    stride = max(1, int(round(math.sqrt(len(cands)))))
    return {cands[i] for i in range(stride - 1, len(cands), stride)}


def chen_greedy_checkpoints(
    graph: DFGraph,
    segment_budget: float,
    candidates: Optional[Sequence[int]] = None,
) -> Set[int]:
    """Chen et al.'s greedy selection: checkpoint when accumulated memory exceeds ``b``.

    Walk the candidate nodes in topological order, summing the activation
    memory of every forward node seen since the last checkpoint; when the sum
    exceeds ``segment_budget`` bytes, checkpoint the current candidate and
    reset the accumulator.
    """
    n_forward, _ = training_graph_metadata(graph)
    cands = sorted(candidates) if candidates is not None else forward_candidates(graph)
    cand_set = set(cands)
    selected: Set[int] = set()
    running = 0.0
    for i in range(n_forward):
        running += graph.memory(i)
        if i in cand_set and running >= segment_budget:
            selected.add(i)
            running = 0.0
    return selected


def ap_candidates(graph: DFGraph) -> List[int]:
    """Checkpoint candidates for the AP generalizations: forward-graph articulation points.

    Articulation points of the undirected forward graph disconnect it, so every
    later activation can be recomputed from the articulation point alone
    (Appendix B.1).  The network input is always resident, so graphs whose
    first node is the only AP still work.
    """
    n_forward, _ = training_graph_metadata(graph)
    fwd_nodes = list(range(n_forward))
    aps = articulation_points(graph, restrict_to=fwd_nodes)
    return [a for a in aps if a < n_forward - 1]


# --------------------------------------------------------------------------- #
# Strategy drivers
# --------------------------------------------------------------------------- #
def solve_chen_sqrt_n(
    graph: DFGraph,
    budget: Optional[float] = None,
    *,
    candidates: Optional[Sequence[int]] = None,
    strategy_name: str = "chen-sqrt(n)",
) -> ScheduledResult:
    """Run the sqrt(n) heuristic (optionally on a restricted candidate set).

    The heuristic has no memory knob; ``budget`` is only used to report
    feasibility of the resulting schedule.
    """
    with Timer() as timer:
        ckpts = chen_sqrt_n_checkpoints(graph, candidates)
        matrices = segment_checkpoint_schedule(graph, ckpts)
        peak = schedule_peak_memory(graph, matrices)
    feasible = budget is None or peak <= budget
    return build_scheduled_result(
        strategy_name, graph, matrices, budget=int(budget) if budget is not None else None,
        feasible=feasible, solve_time_s=timer.elapsed,
        solver_status="ok" if feasible else "over-budget",
        extra={"checkpoints": sorted(ckpts)},
        peak_memory=peak,
    )


def solve_chen_greedy(
    graph: DFGraph,
    budget: Optional[float] = None,
    *,
    candidates: Optional[Sequence[int]] = None,
    num_segment_budgets: int = 20,
    strategy_name: str = "chen-greedy",
) -> ScheduledResult:
    """Run the greedy heuristic, searching over the segment-size parameter ``b``.

    Every value of ``b`` yields one candidate schedule; among schedules that
    fit ``budget`` (if given) the cheapest is returned, mirroring how the paper
    builds the greedy trade-off curve.  With no budget, the schedule with the
    lowest peak memory is returned.
    """
    n_forward, _ = training_graph_metadata(graph)
    fwd_memories = [graph.memory(i) for i in range(n_forward)]
    lo = max(1.0, float(min(m for m in fwd_memories if m > 0) if any(fwd_memories) else 1.0))
    hi = float(sum(fwd_memories)) + 1.0
    segment_budgets = np.unique(np.geomspace(lo, hi, num=num_segment_budgets))

    best: Optional[tuple] = None  # (matrices, cost, peak, segment_budget, ckpts)
    evaluated = []
    # Neighbouring segment budgets frequently select the same checkpoint set;
    # each distinct set is scheduled and simulated exactly once and the full
    # ScheduledResult (validation, packaging) is built only for the winner.
    by_checkpoint_set: dict = {}
    with Timer() as timer:
        for b in segment_budgets:
            ckpts = frozenset(chen_greedy_checkpoints(graph, float(b), candidates))
            entry = by_checkpoint_set.get(ckpts)
            if entry is None:
                matrices = segment_checkpoint_schedule(graph, ckpts)
                cost = schedule_compute_cost(graph, matrices)
                peak = schedule_peak_memory(graph, matrices)
                entry = by_checkpoint_set[ckpts] = (matrices, cost, peak)
            matrices, cost, peak = entry
            evaluated.append({"segment_budget": float(b), "cost": cost, "peak_memory": peak,
                              "num_checkpoints": len(ckpts)})
            fits = budget is None or peak <= budget
            if budget is not None:
                if fits and (best is None or cost < best[1]):
                    best = (matrices, cost, peak, float(b), ckpts)
            else:
                if best is None or peak < best[2]:
                    best = (matrices, cost, peak, float(b), ckpts)
    if best is None:
        # No segment budget fit: report the lowest-memory attempt as infeasible.
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget) if budget is not None else None,
            feasible=False, solve_time_s=timer.elapsed, solver_status="no-feasible-b",
            extra={"search": evaluated},
        )
    matrices, cost, peak, segment_budget, ckpts = best
    return build_scheduled_result(
        strategy_name, graph, matrices, budget=int(budget) if budget is not None else None,
        feasible=True, solve_time_s=timer.elapsed, solver_status="ok",
        peak_memory=peak,
        extra={"segment_budget": segment_budget, "checkpoints": sorted(ckpts),
               "search": evaluated},
    )
