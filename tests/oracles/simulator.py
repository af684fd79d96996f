"""Sequential reference for the schedule memory recurrence (Eq. 2-4)."""

from __future__ import annotations

import numpy as np

from repro.core.dfgraph import DFGraph
from repro.core.schedule import ScheduleMatrices
from repro.core.scheduler import compute_free_events

__all__ = ["simulate_schedule_memory_reference"]


def simulate_schedule_memory_reference(
    graph: DFGraph,
    matrices: ScheduleMatrices,
) -> np.ndarray:
    """Sequential reference implementation of the ``U`` recurrence.

    Replays Eq. (2-4) cell by cell exactly as written in the paper, deriving
    deallocations from :func:`~repro.core.scheduler.compute_free_events`.
    Kept as the oracle the vectorized
    :func:`~repro.core.simulator.simulate_schedule_memory` is tested against;
    not used on any hot path.
    """
    R, S = matrices.R, matrices.S
    T, n = R.shape
    mem = graph.memory_vector
    free_events = compute_free_events(graph, matrices)

    U = np.zeros((T, n + 1), dtype=np.float64)
    for t in range(T):
        U[t, 0] = graph.constant_overhead + float(mem @ S[t])
        running = U[t, 0]
        for k in range(n):
            if R[t, k]:
                running += mem[k]
            U[t, k + 1] = running
            # Garbage collection after evaluating v_k.
            if R[t, k]:
                for i in free_events.get((t, k), ()):
                    running -= mem[i]
    return U
