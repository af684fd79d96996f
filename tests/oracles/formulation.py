"""Loop-built reference MILP formulation of tensor rematerialization.

This module translates the paper's optimization problem (Sections 4.1-4.8)
into explicit sparse constraint matrices consumable by any LP/MILP solver
(:func:`scipy.optimize.milp` / HiGHS in this reproduction, Gurobi in the
original system, or the reference branch-and-bound beside it).  It is the
oracle the vectorized :class:`~repro.solvers.compiled.CompiledFormulation`
must match float for float; no product solver runs on it.

Two variants are supported:

* the **frontier-advancing** (partitioned) formulation of §4.6 / Eq. (9), in
  which stage ``t`` is the first stage where node ``v_t`` is evaluated, making
  ``R`` and ``S`` lower-triangular -- this is the formulation Checkmate solves
  in practice; and
* the **unpartitioned** formulation of Eq. (8) with a free number of stages,
  retained for the Appendix-A integrality-gap and solve-time ablation.

Decision variables
------------------
``R[t, i]``     binary   node ``i`` is (re)computed in stage ``t``
``S[t, i]``     binary   node ``i``'s value is kept from stage ``t-1`` into ``t``
``FREE[t,i,k]`` binary   ``i`` may be deallocated in stage ``t`` after computing ``k``
``U[t, k]``     continuous  memory in use in stage ``t`` after computing node ``k``

The memory budget enters as an upper bound on the ``U`` variables.  Costs and
memory sizes are normalized internally so the constraint matrix is well
conditioned regardless of whether costs are FLOPs (1e9-1e12) or seconds and
memory is bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.dfgraph import DFGraph
from repro.core.schedule import ScheduleMatrices
from repro.solvers.compiled import FormulationArrays, InfeasibleBudgetError

__all__ = ["MILPFormulation", "highs_milp"]


class MILPFormulation:
    """Builds the rematerialization MILP for a graph and memory budget.

    Parameters
    ----------
    graph:
        Training graph with per-node costs and memory.
    budget:
        Memory budget in the same unit as the graph's node memories (bytes).
    frontier_advancing:
        Use the partitioned formulation of §4.6 (default).  When ``False`` the
        unpartitioned Eq. (8) variant is produced; ``num_stages`` then controls
        the unroll length ``T`` (default ``graph.size``).
    num_stages:
        Number of stages ``T``; must equal ``graph.size`` for the
        frontier-advancing variant.
    """

    def __init__(
        self,
        graph: DFGraph,
        budget: float,
        *,
        frontier_advancing: bool = True,
        num_stages: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.budget = float(budget)
        self.frontier_advancing = bool(frontier_advancing)
        n = graph.size
        self.n = n
        self.T = int(num_stages) if num_stages is not None else n
        if self.frontier_advancing and self.T != n:
            raise ValueError("frontier-advancing formulation requires num_stages == graph.size")
        if self.T < 1:
            raise ValueError("need at least one stage")

        if self.budget < graph.constant_overhead:
            raise InfeasibleBudgetError(
                f"budget {self.budget:.3g} B is below the constant input/parameter "
                f"overhead {graph.constant_overhead:.3g} B"
            )

        # Normalization for conditioning.
        self._cost_scale = max(float(graph.cost_vector.max()), 1e-12)
        self._mem_scale = max(float(graph.memory_vector.max()), 1.0)
        self._norm_mem = graph.memory_vector / self._mem_scale
        self._norm_budget = self.budget / self._mem_scale
        self._norm_overhead = graph.constant_overhead / self._mem_scale

        # Edges materialized once (child-major, the edges() order); every
        # stage loop below walks this list instead of regenerating the
        # iterator and rebuilding per-stage membership sets.
        self._edges = list(graph.edges())
        self._c_unnormalized: Optional[np.ndarray] = None

        self._build_index()

    # ------------------------------------------------------------------ #
    # Variable indexing
    # ------------------------------------------------------------------ #
    def _stage_nodes(self, t: int) -> range:
        """Nodes that may be computed during stage ``t``."""
        if self.frontier_advancing:
            return range(0, t + 1)
        return range(0, self.n)

    def _checkpointable(self, t: int) -> range:
        """Nodes that may be checkpointed *into* stage ``t``."""
        if self.frontier_advancing:
            return range(0, t)  # strictly lower triangular (8b)
        return range(0, self.n)

    def _in_stage(self, t: int, j: int) -> bool:
        """Arithmetic membership test for ``j in self._stage_nodes(t)``.

        O(1) instead of rebuilding ``set(self._stage_nodes(t))`` per stage
        (which made index construction quadratic in set building alone).
        """
        return (not self.frontier_advancing) or j <= t

    def _is_checkpointable(self, t: int, i: int) -> bool:
        """Arithmetic membership test for ``i in self._checkpointable(t)``."""
        return (not self.frontier_advancing) or i < t

    def _build_index(self) -> None:
        self.r_index: Dict[Tuple[int, int], int] = {}
        self.s_index: Dict[Tuple[int, int], int] = {}
        self.free_index: Dict[Tuple[int, int, int], int] = {}
        self.u_index: Dict[Tuple[int, int], int] = {}

        counter = 0
        for t in range(self.T):
            for i in self._stage_nodes(t):
                self.r_index[(t, i)] = counter
                counter += 1
        for t in range(self.T):
            for i in self._checkpointable(t):
                self.s_index[(t, i)] = counter
                counter += 1
        for t in range(self.T):
            for (i, k) in self._edges:
                if self._in_stage(t, k):
                    self.free_index[(t, i, k)] = counter
                    counter += 1
                elif self.frontier_advancing:
                    break  # edges are child-major: no later edge is in stage t
        for t in range(self.T):
            for k in self._stage_nodes(t):
                self.u_index[(t, k)] = counter
                counter += 1
        self.num_variables = counter

    # ------------------------------------------------------------------ #
    # Matrix construction
    # ------------------------------------------------------------------ #
    def build(self) -> FormulationArrays:
        """Assemble objective, bounds and the sparse constraint matrix."""
        g = self.graph
        n, T = self.n, self.T
        nv = self.num_variables

        c = np.zeros(nv)
        integrality = np.ones(nv)
        lb = np.zeros(nv)
        ub = np.ones(nv)

        norm_costs = g.cost_vector / self._cost_scale
        for (t, i), idx in self.r_index.items():
            c[idx] = norm_costs[i]

        # Continuous memory-accounting variables, bounded by the budget: this is
        # where the memory constraint U_{t,k} <= M_budget of Eq. (9) lives.
        for (t, k), idx in self.u_index.items():
            integrality[idx] = 0
            lb[idx] = 0.0
            ub[idx] = self._norm_budget

        # Frontier-advancing variable fixings (8a).
        if self.frontier_advancing:
            for t in range(T):
                idx = self.r_index[(t, t)]
                lb[idx] = 1.0
        else:
            # (1d): no checkpoints into the first stage.
            for i in self._checkpointable(0):
                if (0, i) in self.s_index:
                    ub[self.s_index[(0, i)]] = 0.0

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        con_lb: List[float] = []
        con_ub: List[float] = []
        row = 0

        def add_entry(r: int, col: int, val: float) -> None:
            rows.append(r)
            cols.append(col)
            vals.append(val)

        INF = np.inf

        # ---- (1b): R[t,j] <= R[t,i] + S[t,i] for every edge (i, j). ---------
        for t in range(T):
            for (i, j) in self._edges:
                if not self._in_stage(t, j):
                    if self.frontier_advancing:
                        break  # child-major edge order: the rest are out too
                    continue
                add_entry(row, self.r_index[(t, j)], 1.0)
                if self._in_stage(t, i):
                    add_entry(row, self.r_index[(t, i)], -1.0)
                if self._is_checkpointable(t, i):
                    add_entry(row, self.s_index[(t, i)], -1.0)
                con_lb.append(-INF)
                con_ub.append(0.0)
                row += 1

        # ---- (1c): S[t,i] <= R[t-1,i] + S[t-1,i]. ---------------------------
        for t in range(1, T):
            for i in self._checkpointable(t):
                add_entry(row, self.s_index[(t, i)], 1.0)
                if self._in_stage(t - 1, i):
                    add_entry(row, self.r_index[(t - 1, i)], -1.0)
                if self._is_checkpointable(t - 1, i):
                    add_entry(row, self.s_index[(t - 1, i)], -1.0)
                con_lb.append(-INF)
                con_ub.append(0.0)
                row += 1

        # ---- (1e) for the unpartitioned variant: terminal node computed. ----
        if not self.frontier_advancing:
            for t in range(T):
                add_entry(row, self.r_index[(t, n - 1)], 1.0)
            con_lb.append(1.0)
            con_ub.append(INF)
            row += 1

        # ---- FREE linearization (7b) and (7c). ------------------------------
        # num_hazards(t,i,k) = (1 - R[t,k]) + S[t+1,i] + sum_{j in USERS[i], j>k} R[t,j]
        for (t, i, k), fidx in self.free_index.items():
            later_users = [j for j in g.successors(i)
                           if j > k and self._in_stage(t, j)]
            kappa = 2.0 + len(later_users)

            # (7b): 1 - FREE <= num_hazards
            #   =>  -FREE + R[t,k] - S[t+1,i] - sum_j R[t,j] <= 0
            add_entry(row, fidx, -1.0)
            add_entry(row, self.r_index[(t, k)], 1.0)
            if t + 1 < T and i in self._checkpointable(t + 1):
                add_entry(row, self.s_index[(t + 1, i)], -1.0)
            for j in later_users:
                add_entry(row, self.r_index[(t, j)], -1.0)
            con_lb.append(-INF)
            con_ub.append(0.0)
            row += 1

            # (7c): kappa * (1 - FREE) >= num_hazards
            #   =>  kappa*FREE - R[t,k] + S[t+1,i] + sum_j R[t,j] <= kappa - 1
            add_entry(row, fidx, kappa)
            add_entry(row, self.r_index[(t, k)], -1.0)
            if t + 1 < T and i in self._checkpointable(t + 1):
                add_entry(row, self.s_index[(t + 1, i)], 1.0)
            for j in later_users:
                add_entry(row, self.r_index[(t, j)], 1.0)
            con_lb.append(-INF)
            con_ub.append(kappa - 1.0)
            row += 1

        # ---- Memory accounting recurrence (Eq. 2-3). -------------------------
        mem = self._norm_mem
        for t in range(T):
            stage_nodes = list(self._stage_nodes(t))
            first = stage_nodes[0]
            # U[t, first] - sum_i M_i S[t,i] - M_first R[t,first] = overhead
            add_entry(row, self.u_index[(t, first)], 1.0)
            for i in self._checkpointable(t):
                add_entry(row, self.s_index[(t, i)], -float(mem[i]))
            add_entry(row, self.r_index[(t, first)], -float(mem[first]))
            con_lb.append(self._norm_overhead)
            con_ub.append(self._norm_overhead)
            row += 1

            # U[t,k] = U[t,k-1] - sum_{i in DEPS[k-1]} M_i FREE[t,i,k-1] + M_k R[t,k]
            for k in stage_nodes[1:]:
                prev = k - 1
                add_entry(row, self.u_index[(t, k)], 1.0)
                add_entry(row, self.u_index[(t, prev)], -1.0)
                add_entry(row, self.r_index[(t, k)], -float(mem[k]))
                for i in g.predecessors(prev):
                    fidx = self.free_index.get((t, i, prev))
                    if fidx is not None:
                        add_entry(row, fidx, float(mem[i]))
                con_lb.append(0.0)
                con_ub.append(0.0)
                row += 1

        A = sparse.coo_matrix((vals, (rows, cols)), shape=(row, nv)).tocsr()
        return FormulationArrays(
            c=c,
            integrality=integrality,
            lb=lb,
            ub=ub,
            A=A,
            constraint_lb=np.asarray(con_lb),
            constraint_ub=np.asarray(con_ub),
        )

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_matrices(self, x: np.ndarray, *, threshold: float = 0.5) -> ScheduleMatrices:
        """Convert a solution vector into dense ``(R, S)`` 0/1 matrices."""
        R = np.zeros((self.T, self.n), dtype=np.uint8)
        S = np.zeros((self.T, self.n), dtype=np.uint8)
        for (t, i), idx in self.r_index.items():
            R[t, i] = 1 if x[idx] > threshold else 0
        for (t, i), idx in self.s_index.items():
            S[t, i] = 1 if x[idx] > threshold else 0
        if self.frontier_advancing:
            np.fill_diagonal(R, 1)  # (8a) may be returned as 0.9999... by LP solvers
        return ScheduleMatrices(R, S)

    def decode_fractional(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the fractional ``(R*, S*)`` matrices of an LP-relaxation solution."""
        R = np.zeros((self.T, self.n), dtype=np.float64)
        S = np.zeros((self.T, self.n), dtype=np.float64)
        for (t, i), idx in self.r_index.items():
            R[t, i] = x[idx]
        for (t, i), idx in self.s_index.items():
            S[t, i] = x[idx]
        return R, S

    def objective_value(self, x: np.ndarray) -> float:
        """Recompute the (un-normalized) objective: total recomputation cost.

        One cached dot product over the contiguous ``R`` block instead of a
        Python iteration over the index dict per call -- branch-and-bound node
        evaluation and the LP result packaging hit this on every solve.
        """
        if self._c_unnormalized is None:
            nodes = np.fromiter((i for (_, i) in self.r_index),
                                dtype=np.int64, count=len(self.r_index))
            self._c_unnormalized = self.graph.cost_vector[nodes]
        return float(self._c_unnormalized @ np.asarray(x)[: len(self.r_index)])

    def describe(self) -> str:
        """Human readable summary of problem dimensions (for logs and reports)."""
        return (
            f"MILP[{'frontier' if self.frontier_advancing else 'unpartitioned'}] "
            f"graph={self.graph.name!r} n={self.n} T={self.T} "
            f"vars={self.num_variables} (R={len(self.r_index)}, S={len(self.s_index)}, "
            f"FREE={len(self.free_index)}, U={len(self.u_index)})"
        )


def highs_milp(arrays, *, mip_gap: float = 1e-4):
    """Solve loop-built ``FormulationArrays`` with HiGHS directly, using the
    options ``solve_ilp_rematerialization`` passes (no budget-floor or memo
    shortcut in between)."""
    return milp(
        c=arrays.c,
        constraints=LinearConstraint(arrays.A, arrays.constraint_lb,
                                     arrays.constraint_ub),
        integrality=arrays.integrality,
        bounds=Bounds(arrays.lb, arrays.ub),
        options={"mip_rel_gap": mip_gap, "presolve": True},
    )
