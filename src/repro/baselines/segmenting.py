"""Shared machinery for checkpoint-set baselines (Chen, AP, Linearized variants).

All of the heuristic baselines in Table 1 of the paper decide a *set of
forward activations to keep* (the checkpoints); everything else is freed after
its last forward use and recomputed segment-by-segment during the backward
pass.  Following §6.2 of the paper, we express each such heuristic as a static
policy for the checkpoint matrix ``S`` and then solve for the lowest-cost
recomputation matrix ``R`` with the same machinery as phase two of
Algorithm 2 (:func:`repro.solvers.min_r.solve_min_r`).

:func:`segment_checkpoint_schedule` constructs that ``S`` policy:

* checkpointed forward values are retained from the stage after their first
  evaluation to the end of the schedule (the original heuristics never
  deallocate checkpoints -- one of the inefficiencies the paper points out);
* non-checkpointed forward values live (a) through the forward sweep until
  their last forward consumer, and (b) from the stage at which the backward
  pass *enters their segment* (the stage of the gradient of the nearest
  checkpoint above them) until their last consumer -- i.e. the segment is
  recomputed once on entry and then reused, exactly as in Chen et al. (2016);
* every gradient value lives from its evaluation until its last consumer.

The schedule is only valid for *training graphs* produced by
:func:`repro.autodiff.make_training_graph`, which attach the forward-node
count and the forward-to-gradient index map to ``graph.meta``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduleMatrices, StrategyNotApplicableError
from ..solvers.min_r import solve_min_r

__all__ = [
    "training_graph_metadata",
    "segment_checkpoint_schedule",
    "forward_candidates",
]


def training_graph_metadata(graph: DFGraph) -> tuple[int, Dict[int, int]]:
    """Return ``(n_forward, grad_index)`` for a training graph.

    Raises ``ValueError`` when the graph was not produced by
    :func:`repro.autodiff.make_training_graph` (baselines need to know which
    stage backpropagates which forward node).
    """
    n_forward = graph.meta.get("n_forward")
    grad_index = graph.meta.get("grad_index")
    if n_forward is None or grad_index is None:
        raise StrategyNotApplicableError(
            "checkpoint-set baselines require a training graph built by "
            "repro.autodiff.make_training_graph (missing grad_index metadata)"
        )
    return int(n_forward), dict(grad_index)


def forward_candidates(graph: DFGraph) -> List[int]:
    """Default checkpoint candidates: every forward node except the terminal loss."""
    n_forward, _ = training_graph_metadata(graph)
    return list(range(0, n_forward - 1))


def segment_checkpoint_schedule(
    graph: DFGraph,
    checkpoints: Iterable[int],
) -> ScheduleMatrices:
    """Lift a forward-activation checkpoint set into a full ``(R, S)`` schedule.

    Parameters
    ----------
    graph:
        Training graph (forward + backward nodes).
    checkpoints:
        Indices of forward nodes the heuristic keeps resident, for the whole
        schedule (the behaviour of the original heuristics).
    """
    n = graph.size
    n_forward, grad_index = training_graph_metadata(graph)
    ckpts: Set[int] = {int(c) for c in checkpoints}
    for c in ckpts:
        if not (0 <= c < n_forward):
            raise ValueError(f"checkpoint {c} is not a forward node (n_forward={n_forward})")

    def last_user(i: int, *, forward_only: bool = False) -> Optional[int]:
        users = [j for j in graph.successors(i) if (j < n_forward if forward_only else True)]
        return max(users) if users else None

    S = np.zeros((n, n), dtype=np.uint8)

    # --- checkpointed forward values -------------------------------------- #
    for c in sorted(ckpts):
        S[c + 1:, c] = 1

    # --- non-checkpointed forward values ----------------------------------- #
    sorted_ckpts = sorted(ckpts)
    for i in range(n_forward):
        if i in ckpts:
            continue
        # (a) forward-sweep liveness: keep until the last forward consumer.
        lfu = last_user(i, forward_only=True)
        if lfu is not None and lfu > i:
            S[i + 1:lfu + 1, i] = 1
        # (b) backward-phase liveness: the backward pass enters this node's
        # segment at the gradient stage of the nearest checkpoint at-or-above
        # it (or of the terminal forward node when no such checkpoint exists);
        # the value is then recomputed there and retained until its last use.
        above = [c for c in sorted_ckpts if c >= i]
        segment_top = above[0] if above else (n_forward - 1)
        # A node that is its own segment top (e.g. the loss with no checkpoint
        # above it) never gets recomputed: it is simply kept from its forward
        # evaluation until its last use.
        entry_stage = i if segment_top == i else grad_index[segment_top]
        lu = last_user(i)
        if lu is not None and lu > entry_stage:
            S[entry_stage + 1:lu + 1, i] = 1

    # --- gradient values ---------------------------------------------------- #
    for b in range(n_forward, n):
        lu = last_user(b)
        if lu is not None and lu > b:
            S[b + 1:lu + 1, b] = 1

    return solve_min_r(graph, S)
