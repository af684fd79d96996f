"""Schedule representation: the ``R`` / ``S`` decision matrices (paper §4.2).

Checkmate represents a rematerialization schedule by unrolling execution into
``T`` stages (``T = n`` under the frontier-advancing partitioning of §4.6):

* ``R[t, i] = 1``  -- operation ``v_i`` is (re)computed during stage ``t``;
* ``S[t, i] = 1``  -- the value of ``v_i`` is retained in memory from stage
  ``t - 1`` into stage ``t`` (a *checkpoint*);
* ``FREE[t, i, k] = 1`` -- ``v_i`` may be deallocated in stage ``t`` right
  after evaluating ``v_k`` (auxiliary accounting variable, §4.4).

This module provides a small container for those matrices, the constraint
checkers used by the tests and the approximation algorithm, the canonical
"checkpoint all" schedule that frameworks use by default, and the
"no recompute" schedule that computes every node once and keeps each value
only until its last consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .dfgraph import DFGraph
from .plan import ExecutionPlan

__all__ = [
    "ScheduleMatrices",
    "ScheduledResult",
    "StrategyNotApplicableError",
    "checkpoint_all_schedule",
    "checkpoint_last_node_schedule",
    "no_recompute_schedule",
    "validate_correctness_constraints",
    "validate_correctness_constraints_reference",
    "schedule_compute_cost",
]


class StrategyNotApplicableError(ValueError):
    """A strategy does not apply to this graph's structure.

    Raised by linear-only baselines on non-linear graphs and by
    checkpoint-set heuristics on graphs without training metadata.  The solve
    service converts exactly this exception into an infeasible
    ``not-applicable`` result; other ``ValueError``\\ s (misconfigured options,
    invalid schedules) propagate so misuse is never silently reported as
    infeasibility.
    """


@dataclass
class ScheduleMatrices:
    """Dense ``R`` and ``S`` matrices for a ``T``-stage schedule.

    Both matrices have shape ``(T, n)`` with ``T == n`` for frontier-advancing
    schedules.  They are stored as ``uint8`` 0/1 arrays; the FREE tensor is
    derived lazily by the scheduler because it is large (``T x |E|``) and fully
    determined by ``R`` and ``S``.
    """

    R: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        self.R = np.asarray(self.R, dtype=np.uint8)
        self.S = np.asarray(self.S, dtype=np.uint8)
        if self.R.shape != self.S.shape:
            raise ValueError(f"R shape {self.R.shape} != S shape {self.S.shape}")
        if self.R.ndim != 2:
            raise ValueError("R and S must be 2-D (stages x nodes)")

    @property
    def num_stages(self) -> int:
        return self.R.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.R.shape[1]

    def copy(self) -> "ScheduleMatrices":
        return ScheduleMatrices(self.R.copy(), self.S.copy())

    def recomputation_counts(self) -> np.ndarray:
        """Number of times each node is evaluated across all stages."""
        return self.R.sum(axis=0)

    def total_evaluations(self) -> int:
        return int(self.R.sum())


def schedule_compute_cost(graph: DFGraph, matrices: ScheduleMatrices) -> float:
    """Objective (1a): total cost ``sum_t sum_i C_i R[t, i]``."""
    return float((matrices.R.astype(np.float64) @ graph.cost_vector).sum())


def validate_correctness_constraints(
    graph: DFGraph,
    matrices: ScheduleMatrices,
    *,
    frontier_advancing: bool = True,
) -> List[str]:
    """Check the paper's correctness constraints and return violation messages.

    The checks mirror constraints (1b), (1c), (1d)/(8b), (1e)/(8a) and the
    lower-triangular structure (8c).  An empty return value means the schedule
    is a *correct* (dependency-feasible, completing) schedule; memory
    feasibility is a separate question answered by the simulator.

    Validation runs on every result the solvers package up, so the all-clear
    case (by far the common one) is decided with a handful of vectorized
    matrix tests; only schedules that actually violate a constraint take the
    per-cell loop below to produce the detailed messages.
    """
    R, S = matrices.R, matrices.S
    T, n = R.shape

    if n != graph.size:
        return [f"matrix width {n} != graph size {graph.size}"]

    parents, children = graph.edge_arrays
    resident = (R | S).astype(bool)
    clean = (
        not (R[:, children].astype(bool) & ~resident[:, parents]).any()  # (1b)
        and not (S[1:].astype(bool) & ~resident[:-1]).any()              # (1c)
        and not S[0].any()                                               # (1d)
        and R[:, graph.terminal_node].any()                              # (1e)
    )
    if clean and frontier_advancing:
        clean = (
            T == n
            and bool((np.diagonal(R) == 1).all())                        # (8a)
            and not np.triu(R, k=1).any()                                # (8c)
            and not np.triu(S, k=0).any()                                # (8b)
        )
    if clean:
        return []
    return validate_correctness_constraints_reference(
        graph, matrices, frontier_advancing=frontier_advancing
    )


def validate_correctness_constraints_reference(
    graph: DFGraph,
    matrices: ScheduleMatrices,
    *,
    frontier_advancing: bool = True,
) -> List[str]:
    """Cell-by-cell constraint checker producing the detailed messages.

    The per-``(t, cell)`` loop the vectorized
    :func:`validate_correctness_constraints` falls back to when a schedule is
    actually broken; also the reference oracle for the fast path's tests.
    """
    R, S = matrices.R, matrices.S
    T, n = R.shape
    violations: List[str] = []

    if n != graph.size:
        return [f"matrix width {n} != graph size {graph.size}"]

    # (1b) computing v_j in stage t requires each parent either recomputed or checkpointed.
    for t in range(T):
        for (i, j) in graph.edges():
            if R[t, j] and not (R[t, i] or S[t, i]):
                violations.append(
                    f"(1b) stage {t}: node {j} computed but parent {i} not resident"
                )
    # (1c) a value can only be checkpointed into stage t if it existed in stage t-1.
    for t in range(1, T):
        for i in range(n):
            if S[t, i] and not (R[t - 1, i] or S[t - 1, i]):
                violations.append(
                    f"(1c) stage {t}: node {i} checkpointed without being resident in stage {t-1}"
                )
    # (1d) nothing is checkpointed into the first stage.
    if S[0].any():
        violations.append("(1d) stage 0 has initial checkpoints")
    # (1e) the terminal node is computed at least once.
    if not R[:, graph.terminal_node].any():
        violations.append("(1e) terminal node never computed")

    if frontier_advancing:
        if T != n:
            violations.append(f"(8) frontier-advancing schedules need T == n, got T={T}")
        else:
            for t in range(T):
                if not R[t, t]:
                    violations.append(f"(8a) stage {t}: diagonal R[{t},{t}] != 1")
                if R[t, t + 1:].any():
                    violations.append(f"(8c) stage {t}: R not lower-triangular")
                if S[t, t:].any():
                    violations.append(f"(8b) stage {t}: S not strictly lower-triangular")
    return violations


def checkpoint_all_schedule(graph: DFGraph) -> ScheduleMatrices:
    """The default framework behaviour: compute every node once, retain everything.

    In the frontier-advancing representation this is ``R = I`` (each node is
    computed exactly once, in its own stage) and ``S`` keeping every previously
    computed value alive in all later stages.  This is the ``Checkpoint all
    (ideal)`` baseline from Table 1 of the paper.
    """
    n = graph.size
    R = np.eye(n, dtype=np.uint8)
    S = np.tril(np.ones((n, n), dtype=np.uint8), k=-1)
    return ScheduleMatrices(R, S)


def no_recompute_schedule(graph: DFGraph) -> ScheduleMatrices:
    """Compute every node once and keep each value only while it is needed.

    ``R = I`` and ``S[t, i] = 1`` iff ``i < t <= last_consumer(i)``, where a
    node without users is its own last consumer (so it is never checkpointed).
    It costs exactly ``sum(C)``, the least any frontier-advancing schedule
    can cost since (8a) computes every node at least once.  It is the
    checkpoint-all schedule with every dead value dropped, so its peak is at
    most checkpoint-all's.
    """
    n = graph.size
    parents, children = graph.edge_arrays
    last = np.arange(n)
    np.maximum.at(last, parents, children)
    stage = np.arange(n)[:, None]
    S = (stage > np.arange(n)) & (stage <= last)
    return ScheduleMatrices(np.eye(n, dtype=np.uint8), S)


def checkpoint_last_node_schedule(graph: DFGraph) -> ScheduleMatrices:
    """A maximally lazy schedule: keep only what the frontier forces, recompute the rest.

    Every stage ``t`` recomputes the full ancestor set of node ``t`` from
    scratch.  This is the other extreme of the memory/compute trade-off and is
    mainly useful as a stress-test fixture and a worst-case overhead bound.
    """
    from .graph_utils import ancestors

    n = graph.size
    R = np.zeros((n, n), dtype=np.uint8)
    S = np.zeros((n, n), dtype=np.uint8)
    for t in range(n):
        R[t, t] = 1
        for a in ancestors(graph, t):
            R[t, a] = 1
    return ScheduleMatrices(R, S)


@dataclass
class ScheduledResult:
    """The result of running one rematerialization strategy on one graph.

    This bundles everything the evaluation harness needs: the schedule itself
    and the headline metrics (compute cost under the graph's cost model, peak
    memory from the simulator, solver statistics).  The execution plan is not
    stored: :attr:`plan` lowers it from ``(graph, matrices)`` on first access.
    """

    strategy: str
    graph: DFGraph
    matrices: Optional[ScheduleMatrices]
    compute_cost: float
    peak_memory: int
    feasible: bool
    budget: Optional[int] = None
    solve_time_s: float = 0.0
    solver_status: str = "ok"
    extra: Dict[str, object] = field(default_factory=dict)
    _plan: Optional[ExecutionPlan] = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def plan(self) -> Optional[ExecutionPlan]:
        """The schedule lowered to an execution plan (Algorithm 1), or
        ``None`` when there are no matrices.

        Lowered on first access and memoized.  No lock: the lowering is a
        pure function of ``(graph, matrices)``, so two racing first accesses
        only repeat the work.
        """
        if self._plan is None and self.matrices is not None:
            from . import scheduler  # scheduler imports this module

            self._plan = scheduler.generate_execution_plan(self.graph, self.matrices)
        return self._plan

    @property
    def overhead(self) -> float:
        """Compute overhead relative to the checkpoint-all ideal (>= 1.0 when feasible)."""
        ideal = self.graph.total_cost()
        if ideal <= 0:
            return float("nan")
        return self.compute_cost / ideal

    def within_budget(self) -> bool:
        """Whether the measured peak memory fits the requested budget."""
        if self.budget is None:
            return True
        return self.peak_memory <= self.budget

    def summary(self) -> str:
        status = "feasible" if self.feasible else f"INFEASIBLE({self.solver_status})"
        budget = f"{self.budget / 2**30:.2f} GiB" if self.budget is not None else "unbounded"
        return (
            f"{self.strategy:<24s} budget={budget:<12s} cost={self.compute_cost:.4g} "
            f"overhead={self.overhead:.3f}x peak_mem={self.peak_memory / 2**20:.1f} MiB "
            f"[{status}]"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScheduledResult({self.summary()})"
