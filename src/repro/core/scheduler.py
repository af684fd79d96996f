"""Lowering ``(R, S)`` schedules into concrete execution plans (Algorithm 1).

The solver outputs a pair of 0/1 matrices describing *what* is resident and
*what* is recomputed per stage.  This module derives the ``FREE`` deallocation
events from those matrices (paper Eq. 5-6 / §4.8) and performs the row-major
scan of Algorithm 1 to emit an ``allocate`` / ``compute`` / ``deallocate``
statement list, followed by the deallocation code-motion pass described in
§4.9.

Plans emitted here obey the register-reuse contract pinned down in
:mod:`repro.core.plan`: every register is allocated immediately before its
(single) compute, and when a stage recomputes a node whose previous copy is
still live the old register is deallocated *first*, so a node never occupies
two registers at once and the simulator's allocate-time accounting matches
the executor's compute-time accounting statement for statement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .dfgraph import DFGraph
from .plan import AllocateRegister, ComputeNode, DeallocateRegister, ExecutionPlan
from .schedule import ScheduleMatrices

__all__ = [
    "compute_free_events",
    "generate_execution_plan",
    "hoist_deallocations",
]


def compute_free_events(
    graph: DFGraph,
    matrices: ScheduleMatrices,
) -> Dict[Tuple[int, int], List[int]]:
    """Evaluate the ``FREE`` variables implied by an ``(R, S)`` schedule.

    Implements Eq. (5) of the paper:

    ``FREE[t, i, k] = R[t, k] * (1 - S[t+1, i]) * prod_{j in USERS[i], j > k} (1 - R[t, j])``

    i.e. dependency ``v_i`` may be garbage collected right after evaluating
    ``v_k`` in stage ``t`` iff ``v_k`` was actually evaluated, ``v_i`` is not
    checkpointed into the next stage and no later user of ``v_i`` runs in the
    same stage.  ``S[T, i]`` (beyond the final stage) is treated as zero.
    ``FREE[t, k, k]`` is evaluated too -- freeing a value immediately after a
    spurious recomputation.  The MILP eliminates these variables by
    optimality (§4.8) and recovers them after solving, as done here.

    Returns
    -------
    Mapping ``(t, k) -> sorted list of node ids freed right after computing k``.
    """
    R, S = matrices.R, matrices.S
    T, n = R.shape
    free_events: Dict[Tuple[int, int], List[int]] = {}

    def next_stage_checkpointed(t: int, i: int) -> bool:
        return t + 1 < T and bool(S[t + 1, i])

    for t in range(T):
        computed = np.flatnonzero(R[t]).tolist()
        computed_set = set(computed)
        for k in computed:
            candidates = list(graph.predecessors(k)) + [k]
            freed: List[int] = []
            for i in candidates:
                if next_stage_checkpointed(t, i):
                    continue
                later_user_in_stage = any(
                    (j > k) and (j in computed_set) for j in graph.successors(i)
                )
                if later_user_in_stage:
                    continue
                freed.append(i)
            if freed:
                free_events[(t, k)] = sorted(set(freed))
    return free_events


def generate_execution_plan(
    graph: DFGraph,
    matrices: ScheduleMatrices,
    *,
    hoist: bool = True,
) -> ExecutionPlan:
    """Algorithm 1: lower ``(R, S, FREE)`` into a concrete execution plan.

    The plan walks stages in order and, within each stage, nodes in topological
    order.  When ``R[t, k] = 1`` a fresh virtual register is allocated and the
    node computed into it; afterwards any dependency whose ``FREE`` event fires
    is deallocated.  At each stage boundary, values that are neither
    checkpointed into the next stage nor already freed are deallocated -- this
    mirrors the solver's memory accounting, which drops non-checkpointed values
    from ``U[t+1, 0]``.

    Parameters
    ----------
    hoist:
        Apply the §4.9 code-motion optimization, moving deallocations of
        checkpoints that are unused within a stage to the start of that stage.
    """
    R, S = matrices.R, matrices.S
    T, n = R.shape
    if n != graph.size:
        raise ValueError("schedule width does not match graph size")

    free_events = compute_free_events(graph, matrices)
    plan = ExecutionPlan(graph_name=graph.name)

    regs: Dict[int, int] = {}  # node id -> live register id
    next_reg = 0
    terminal = graph.terminal_node

    for t in range(T):
        stage_members = np.flatnonzero(R[t]).tolist()
        for k in stage_members:
            # Re-computing a value whose old copy is still live: drop the old copy
            # first so a node never occupies two registers simultaneously.
            if k in regs:
                plan.append(DeallocateRegister(register=regs[k], node_id=k))
                del regs[k]
            reg = next_reg
            next_reg += 1
            plan.append(AllocateRegister(register=reg, node_id=k, size_bytes=graph.memory(k)))
            plan.append(ComputeNode(register=reg, node_id=k))
            regs[k] = reg
            for i in free_events.get((t, k), ()):
                if i in regs:
                    plan.append(DeallocateRegister(register=regs[i], node_id=i))
                    del regs[i]
        # Stage boundary: free anything not carried into stage t+1.
        if t + 1 < T:
            carried = set(np.flatnonzero(S[t + 1]).tolist())
        else:
            carried = {terminal}  # keep the final result live at program end
        for i in sorted(list(regs.keys())):
            if i not in carried:
                plan.append(DeallocateRegister(register=regs[i], node_id=i))
                del regs[i]

    if hoist:
        plan = hoist_deallocations(graph, plan)
    plan.validate_structure()
    return plan


def hoist_deallocations(graph: DFGraph, plan: ExecutionPlan) -> ExecutionPlan:
    """Deallocation code motion (§4.9).

    Move each ``deallocate`` statement as early as possible: immediately after
    the last preceding statement that *uses* the value (a compute of the value
    itself, or a compute of one of its users).  The solver already guarantees
    the un-optimized plan respects the budget, so this pass can only lower the
    memory high-water mark; it never changes which values are computed.
    """
    result = list(plan.statements)
    # Registers are allocated (and therefore deallocated) at most once, so a
    # register id uniquely identifies a deallocation statement.  Process each
    # one independently, re-locating it in the (mutating) statement list.
    dealloc_regs = [s.register for s in result if isinstance(s, DeallocateRegister)]

    for reg in dealloc_regs:
        idx = next(
            i for i, s in enumerate(result)
            if isinstance(s, DeallocateRegister) and s.register == reg
        )
        stmt = result[idx]
        assert isinstance(stmt, DeallocateRegister)
        node = stmt.node_id
        users = set(graph.successors(node))
        # Find the last statement before idx that requires `node` to be live.
        last_use = -1
        for j in range(idx - 1, -1, -1):
            s = result[j]
            if isinstance(s, ComputeNode) and (s.node_id == node or s.node_id in users):
                last_use = j
                break
            if isinstance(s, AllocateRegister) and s.register == stmt.register:
                last_use = j
                break
        target = last_use + 1
        if target < idx:
            result.pop(idx)
            result.insert(target, stmt)
    hoisted = ExecutionPlan(statements=result, graph_name=plan.graph_name)
    hoisted.validate_structure()
    return hoisted
