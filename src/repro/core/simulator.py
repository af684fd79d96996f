"""Memory simulation of schedules and execution plans.

Two complementary simulators are provided:

* :func:`simulate_schedule_memory` evaluates the paper's memory recurrence
  (Eq. 2-4) directly on the ``(R, S)`` matrices, producing the ``U`` matrix the
  MILP constrains.  This is the reference used to decide budget feasibility of
  a schedule.

* :func:`simulate_plan` replays a concrete execution plan statement by
  statement, tracking live virtual registers.  It validates data-dependency
  correctness (an operation may only execute when all of its parents are
  resident) and produces a memory-over-time trace -- the data behind Figure 1
  of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .dfgraph import DFGraph
from .plan import AllocateRegister, ComputeNode, DeallocateRegister, ExecutionPlan, PlanError
from .schedule import ScheduleMatrices

__all__ = [
    "MemoryTrace",
    "simulate_schedule_memory",
    "stage_memory_profiles",
    "schedule_peak_memory",
    "simulate_plan",
    "PlanSimulationError",
]


class PlanSimulationError(PlanError):
    """Raised when a plan violates data-dependency or liveness rules."""


@dataclass
class MemoryTrace:
    """Result of replaying an execution plan.

    Attributes
    ----------
    memory_by_statement:
        Memory in use (bytes, including the constant input/parameter overhead)
        after executing each statement of the plan.
    compute_times:
        Cumulative compute cost after each statement (cost-model units); flat
        segments correspond to allocation/deallocation statements.
    peak_memory:
        High-water mark over the whole plan.
    total_cost:
        Total compute cost of the plan (sum of node costs over all computes).
    """

    memory_by_statement: np.ndarray
    compute_times: np.ndarray
    peak_memory: int
    total_cost: float
    compute_counts: Dict[int, int] = field(default_factory=dict)

    def timeline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(cumulative cost, memory)`` arrays for plotting Figure 1."""
        return self.compute_times, self.memory_by_statement


def simulate_schedule_memory(
    graph: DFGraph,
    matrices: ScheduleMatrices,
) -> np.ndarray:
    """Evaluate the ``U`` memory-accounting recurrence of the paper (Eq. 2-4).

    ``U[t, k]`` is the memory in use in stage ``t`` immediately after
    evaluating node ``v_k`` (and before garbage-collecting ``v_k``'s
    dependencies).  Entries for nodes that are not evaluated in a stage carry
    the running value forward so that ``U.max()`` is the schedule's peak.

    Vectorized: instead of materializing the FREE events dict and running the
    recurrence one ``(t, k)`` cell at a time, each stage's profile is a single
    cumulative sum.  A value ``v_i`` is freed right after the *last* node of
    ``{v_i} ∪ USERS(v_i)`` computed in the stage (all users follow ``i`` in
    topological order, so this is exactly Eq. (5)'s "no later user pending"
    rule), unless it is checkpointed into stage ``t+1``.  All quantities are
    integer-valued float64, so the cumulative sums are bit-equal to a
    sequential cell-by-cell replay driven by
    :func:`~repro.core.scheduler.compute_free_events`.

    Returns
    -------
    ``(T, n + 1)`` float array; column 0 is ``U[t, 0]`` (memory at the start of
    the stage: constant overhead plus checkpoints).
    """
    R, S = matrices.R, matrices.S
    S_next = np.zeros_like(S)
    S_next[:-1] = S[1:]
    return stage_memory_profiles(graph, R, S, S_next)


def stage_memory_profiles(graph: DFGraph, R: np.ndarray, S: np.ndarray,
                          S_next: np.ndarray) -> np.ndarray:
    """``U`` rows of the given stages: row ``k`` holds ``R[k]``, ``S[k]``
    and ``S_next[k]``, the next stage's checkpoints (zeros after the last).

    A stage's profile reads nothing else, so rows of different schedules
    may be stacked and evaluated in one call.  Same layout as
    :func:`simulate_schedule_memory`.
    """
    T, n = R.shape
    mem = graph.memory_vector
    parents, children = graph.edge_arrays
    Rb = R.astype(bool)

    # Last position in each stage at which a value is (potentially) freed:
    # the latest computed member of {i} ∪ USERS(i); -1 when none is computed.
    # O(T * |E|): the self position where R[t, i], then the edges grouped by
    # parent (a stable sort keeps each group in ``edge_arrays``' child-major
    # order) and every group's computed-user positions reduced with one
    # ``maximum.reduceat`` -- no per-edge scatter.
    last_use = np.where(Rb, np.arange(n), -1)
    if parents.size:
        order = np.argsort(parents, kind="stable")
        grouped, users = parents[order], children[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        owners = grouped[starts]
        user_pos = np.where(Rb[:, users], users, -1)  # (T, |E|)
        last_use[:, owners] = np.maximum(
            last_use[:, owners], np.maximum.reduceat(user_pos, starts, axis=1))

    freed = last_use >= 0
    freed &= S_next == 0  # values checkpointed into t+1 are not collected

    # Per-stage profile as one cumulative sum: +M_k at each computed position,
    # -M_i right after each value's last use (frees after the final position
    # fall off the end of the stage).  Frees landing on the same cell are
    # summed by one ``bincount`` over flat ``(t, position)`` indices.
    t_idx, i_idx = np.nonzero(freed)
    at = last_use[t_idx, i_idx] + 1
    inside = at < n
    frees = np.bincount(t_idx[inside] * n + at[inside],
                        weights=mem[i_idx[inside]], minlength=T * n)
    delta = np.where(Rb, mem, 0.0) - frees.reshape(T, n)

    U = np.zeros((T, n + 1), dtype=np.float64)
    U[:, 0] = graph.constant_overhead + S @ mem
    U[:, 1:] = U[:, :1] + np.cumsum(delta, axis=1)
    return U


def schedule_peak_memory(graph: DFGraph, matrices: ScheduleMatrices) -> int:
    """Peak memory of a schedule under the paper's accounting (max over ``U``)."""
    return int(np.ceil(simulate_schedule_memory(graph, matrices).max()))


def simulate_plan(
    graph: DFGraph,
    plan: ExecutionPlan,
    *,
    validate_dependencies: bool = True,
) -> MemoryTrace:
    """Replay an execution plan, tracking register liveness and memory.

    Parameters
    ----------
    graph:
        The data-flow graph the plan was generated for.
    plan:
        The statement list to replay.
    validate_dependencies:
        When ``True`` (default), raise :class:`PlanSimulationError` if a
        ``compute`` statement runs while one of the node's parents has no
        register currently *holding a value* -- i.e. the plan is not a correct
        rematerialization schedule.  Residency follows the register-reuse
        contract of :mod:`repro.core.plan`: a node is resident iff at least
        one register holds a computed value for it, and recomputing into a
        still-live register replaces the value rather than duplicating it.

    Returns
    -------
    :class:`MemoryTrace` with the per-statement memory profile.  Register
    bytes are charged at ``allocate`` (the plan's declared ``size_bytes``),
    whereas :func:`repro.execution.execute_plan` charges actual ``nbytes`` at
    ``compute``; Algorithm 1 emits ``allocate`` immediately before the first
    ``compute`` of each register, so the two peaks agree whenever declared
    sizes match actual tensor sizes.
    """
    live_registers: Dict[int, int] = {}  # register id -> node id
    computed: set = set()                # registers currently holding a value
    live_nodes: Dict[int, int] = {}      # node id -> registers holding its value
    reg_sizes: Dict[int, int] = {}

    current_memory = graph.constant_overhead
    peak = current_memory
    total_cost = 0.0
    counts: Dict[int, int] = {}

    memories: List[float] = []
    times: List[float] = []

    for idx, stmt in enumerate(plan.statements):
        if isinstance(stmt, AllocateRegister):
            if stmt.register in live_registers:
                raise PlanSimulationError(f"statement {idx}: register %{stmt.register} already live")
            live_registers[stmt.register] = stmt.node_id
            reg_sizes[stmt.register] = stmt.size_bytes
            current_memory += stmt.size_bytes
        elif isinstance(stmt, ComputeNode):
            node = stmt.node_id
            if stmt.register not in live_registers:
                raise PlanSimulationError(
                    f"statement {idx}: compute v{node} into dead register %{stmt.register}"
                )
            if live_registers[stmt.register] != node:
                raise PlanSimulationError(
                    f"statement {idx}: register %{stmt.register} allocated for node "
                    f"{live_registers[stmt.register]} but computed with node {node}"
                )
            if validate_dependencies:
                for parent in graph.predecessors(node):
                    if live_nodes.get(parent, 0) <= 0:
                        raise PlanSimulationError(
                            f"statement {idx}: compute v{node} but parent v{parent} is not resident"
                        )
            if stmt.register not in computed:
                # First compute into this register makes the node's value
                # resident there; *re*-computing into the same register only
                # replaces the value, so the residency count must not grow
                # (incrementing per compute was the refcount-leak bug that
                # kept nodes "resident" after their register was freed).
                computed.add(stmt.register)
                live_nodes[node] = live_nodes.get(node, 0) + 1
            total_cost += graph.cost(node)
            counts[node] = counts.get(node, 0) + 1
        elif isinstance(stmt, DeallocateRegister):
            if stmt.register not in live_registers:
                raise PlanSimulationError(
                    f"statement {idx}: deallocate of dead register %{stmt.register}"
                )
            node = live_registers.pop(stmt.register)
            current_memory -= reg_sizes.pop(stmt.register)
            if stmt.register in computed:
                computed.discard(stmt.register)
                live_nodes[node] -= 1
                if live_nodes[node] <= 0:
                    del live_nodes[node]
        else:  # pragma: no cover - defensive
            raise PlanSimulationError(f"statement {idx}: unknown statement {stmt!r}")

        peak = max(peak, current_memory)
        memories.append(current_memory)
        times.append(total_cost)

    return MemoryTrace(
        memory_by_statement=np.asarray(memories, dtype=np.float64),
        compute_times=np.asarray(times, dtype=np.float64),
        peak_memory=int(np.ceil(peak)),
        total_cost=float(total_cost),
        compute_counts=counts,
    )
