"""Compiled MILP formulation: build the arrays once per graph, re-budget in O(1).

This module translates the paper's optimization problem (Sections 4.1-4.8)
into sparse standard-form arrays (:class:`FormulationArrays`) for
HiGHS through :func:`repro.solvers.highs.milp`.  Two variants are supported:

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

Costs and memory sizes are normalized internally so the constraint matrix is
well conditioned regardless of whether costs are FLOPs (1e9-1e12) or seconds
and memory is bytes.

The matrix ``A``, the objective ``c``, the integrality pattern and every
constraint bound depend only on ``(graph, variant, num_stages)`` -- the memory
budget of Eq. (9) enters the standard form *solely* as the upper bound of the
continuous ``U`` variables.  Since the paper's whole experimental surface is
"same graph, many budgets" (the Figure 5 sweeps, the Figure 6 max-batch
bisection, the Table 2 ratio grids), :class:`CompiledFormulation` assembles
everything budget-independent exactly once with vectorized NumPy batch COO
construction, and :meth:`CompiledFormulation.with_budget` patches only
``ub[u_slice]`` -- microseconds instead of a full rebuild.

Variable slice layout (offsets within the flat variable vector ``x``)
---------------------------------------------------------------------
The four variable families are laid out in contiguous blocks:

====== ============================ =========================================
block  paper object                 index of ``(t, i)`` within the block
====== ============================ =========================================
``R``  Eq. (1a)/(9) recomputation   frontier: ``t(t+1)/2 + i`` (``i <= t``,
       indicator ``R_{t,i}``        lower triangular per §4.6 / Eq. (8c));
                                    unpartitioned: ``t*n + i``
``S``  Eq. (1b-1d) checkpoint       frontier: ``t(t-1)/2 + i`` (``i < t``,
       indicator ``S_{t,i}``        strictly lower triangular, Eq. (8b));
                                    unpartitioned: ``t*n + i``
``FREE`` Eq. (5)/(7) deallocation   ``(t, e)`` for edge ``e = (i, k)`` active
       indicator ``FREE_{t,i,k}``   in stage ``t`` (``k <= t`` under the
                                    frontier variant): ``cumE[t] + e`` where
                                    ``cumE`` counts active edges of earlier
                                    stages; unpartitioned: ``t*E + e``
``U``  Eq. (2-3) memory-in-use      same triangular/rectangular layout as
       ``U_{t,k}``                  ``R``; the *only* place the budget of
                                    Eq. (9) ("U <= M_budget") appears
====== ============================ =========================================

Constraint rows come in this order: the dependency constraints (1b), then
checkpoint continuity (1c), then -- unpartitioned only -- the
terminal-completion row (1e), then the interleaved FREE linearization rows
(7b)/(7c) per FREE variable, then the memory recurrence rows (Eq. 2-3) stage
by stage.  The test-suite keeps a loop-built reference formulation that
``with_budget`` must match float for float.

The module also hosts the per-process :class:`FormulationCache` (structural-hash
keyed, single-flight, LRU) that the solvers consult.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from ..analysis.analyses import structural_graph_hash
from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduleMatrices
from ..obs.trace import get_tracer
from ..utils.lru import SingleFlightLRU

__all__ = [
    "CompiledFormulation",
    "FormulationCache",
    "get_formulation_cache",
    "set_formulation_cache",
    "formulation_and_arrays",
    "FormulationArrays",
    "InfeasibleBudgetError",
]


class InfeasibleBudgetError(ValueError):
    """Raised when the budget cannot fit even the constant overhead."""


@dataclass
class FormulationArrays:
    """Dense/sparse arrays describing the MILP in standard form.

    minimize    c @ x
    subject to  constraint_lb <= A @ x <= constraint_ub
                lb <= x <= ub
                x[i] integral where integrality[i] == 1
    """

    c: np.ndarray
    integrality: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A: sparse.csr_matrix
    constraint_lb: np.ndarray
    constraint_ub: np.ndarray


def _ramp(reps: np.ndarray) -> np.ndarray:
    """``concatenate([arange(r) for r in reps])`` without a Python loop."""
    reps = np.asarray(reps, dtype=np.int64)
    total = int(reps.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, reps)


class CompiledFormulation:
    """Budget-independent standard-form arrays for the rematerialization MILP.

    Assembles objective, integrality, variable bounds, the sparse constraint
    matrix and the constraint bounds once, using preallocated index arrays and
    batch COO construction -- no per-entry ``list.append``, no per-stage
    ``set`` rebuilds (frontier membership is the arithmetic test ``j <= t``).
    :meth:`with_budget` then produces solver-ready
    :class:`FormulationArrays` for any budget by
    patching only the ``U``-block upper bounds.

    The decode side (:meth:`decode_matrices`, :meth:`decode_fractional`,
    :meth:`objective_value`) is vectorized too: solution vectors are scattered
    into the dense ``(R, S)`` matrices with fancy indexing.

    Everything except the returned ``ub`` vector is shared between budgets;
    treat the arrays as read-only (the solvers already do).
    """

    def __init__(
        self,
        graph: DFGraph,
        *,
        frontier_advancing: bool = True,
        num_stages: Optional[int] = None,
    ) -> None:
        t_start = time.perf_counter()
        self.graph = graph
        self.frontier_advancing = bool(frontier_advancing)
        n = graph.size
        self.n = n
        self.T = int(num_stages) if num_stages is not None else n
        if self.frontier_advancing and self.T != n:
            raise ValueError("frontier-advancing formulation requires num_stages == graph.size")
        if self.T < 1:
            raise ValueError("need at least one stage")

        # Normalization for conditioning.
        self._cost_scale = max(float(graph.cost_vector.max()), 1e-12)
        self._mem_scale = max(float(graph.memory_vector.max()), 1.0)
        self._norm_mem = graph.memory_vector / self._mem_scale
        self._norm_overhead = graph.constant_overhead / self._mem_scale

        self._build_layout()
        self._build_arrays()

        # Learned infeasibility frontier (per integrality mode): budgets are
        # totally ordered, so one proven-infeasible verdict at budget b rules
        # out every b' <= b.  LP infeasibility additionally implies ILP
        # infeasibility (the relaxation only enlarges the feasible set).
        # Shared process-wide through the FormulationCache, the memo lets a
        # sweep/bisection prove a whole tail of budgets infeasible with at
        # most one solver call.
        self._infeasible_lock = threading.Lock()
        self._max_infeasible = {"lp": float("-inf"), "ilp": float("-inf")}
        self._budget_floor: Optional[float] = None

        self.compile_time_s = time.perf_counter() - t_start
        #: Pass-with-statistics summary (sizes + compile time), one dict.
        self.stats: Dict[str, object] = {
            "variables": self.num_variables,
            "constraints": int(self._A.shape[0]),
            "nnz": int(self._A.nnz),
            "num_r": self.num_r,
            "num_s": self.num_s,
            "num_free": self.num_free,
            "num_u": self.num_u,
            "compile_time_s": self.compile_time_s,
        }

    # ------------------------------------------------------------------ #
    # Variable layout
    # ------------------------------------------------------------------ #
    def _build_layout(self) -> None:
        n, T = self.n, self.T
        parents, children = self.graph.edge_arrays
        self._edge_parent = parents
        self._edge_child = children
        E = parents.shape[0]
        self._E = E

        if self.frontier_advancing:
            self.num_r = T * (T + 1) // 2
            self.num_s = T * (T - 1) // 2
            # Edges active in stage t are exactly the prefix with child <= t
            # (edges are child-major), so per-stage counts come from one
            # searchsorted over the child array.
            self._edges_per_stage = np.searchsorted(children, np.arange(T), side="right")
            self._cum_edges = np.concatenate(
                ([0], np.cumsum(self._edges_per_stage)[:-1])
            ).astype(np.int64)
            self.num_free = int(self._edges_per_stage.sum())
            self.num_u = self.num_r
        else:
            self.num_r = T * n
            self.num_s = T * n
            self._edges_per_stage = np.full(T, E, dtype=np.int64)
            self._cum_edges = np.arange(T, dtype=np.int64) * E
            self.num_free = T * E
            self.num_u = T * n

        self._r_base = 0
        self._s_base = self.num_r
        self._free_base = self.num_r + self.num_s
        self._u_base = self.num_r + self.num_s + self.num_free
        self.num_variables = self._u_base + self.num_u
        self.u_slice = slice(self._u_base, self._u_base + self.num_u)

        # (t, i) pairs of each block in variable order, for decode / objective.
        if self.frontier_advancing:
            self._r_t, self._r_i = np.tril_indices(T)
            self._s_t, self._s_i = np.tril_indices(T, k=-1)
        else:
            self._r_t = np.repeat(np.arange(T, dtype=np.int64), n)
            self._r_i = np.tile(np.arange(n, dtype=np.int64), T)
            self._s_t, self._s_i = self._r_t, self._r_i

    # Vectorized variable-index arithmetic: ``t`` / ``i`` may be arrays.
    def _r(self, t, i):
        if self.frontier_advancing:
            return self._r_base + t * (t + 1) // 2 + i
        return self._r_base + t * self.n + i

    def _s(self, t, i):
        if self.frontier_advancing:
            return self._s_base + t * (t - 1) // 2 + i
        return self._s_base + t * self.n + i

    def _free(self, t, e):
        return self._free_base + self._cum_edges[t] + e

    def _u(self, t, k):
        if self.frontier_advancing:
            return self._u_base + t * (t + 1) // 2 + k
        return self._u_base + t * self.n + k

    # ------------------------------------------------------------------ #
    # One-time assembly
    # ------------------------------------------------------------------ #
    def _active_stage_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(t, e)`` pairs with edge ``e`` active in stage ``t``.

        Frontier variant: edge ``(i, k)`` is active for ``t >= k``.
        Unpartitioned: every edge is active in every stage.
        """
        T, E = self.T, self._E
        if self.frontier_advancing:
            reps = T - self._edge_child  # child < T, so >= 1
            act_e = np.repeat(np.arange(E, dtype=np.int64), reps)
            act_t = np.repeat(self._edge_child, reps) + _ramp(reps)
        else:
            act_t = np.repeat(np.arange(T, dtype=np.int64), E)
            act_e = np.tile(np.arange(E, dtype=np.int64), T)
        return act_t, act_e

    def _later_user_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(edge (i, k), j)`` with ``j`` a later user of ``i`` (``j > k``).

        These are the "num_hazards" interaction terms of Eq. (7): for parent
        ``i`` with users ``u_1 < ... < u_d``, every ordered pair ``(u_a, u_b)``
        with ``a < b`` contributes a ``R[t, u_b]`` entry to the FREE rows of
        the variable ``FREE[t, i, u_a]``.
        """
        parents, children = self._edge_parent, self._edge_child
        order = np.lexsort((children, parents))
        par_sorted = parents[order]
        offsets = np.searchsorted(par_sorted, np.arange(self.n + 1))
        pair_edges = []
        pair_users = []
        for i in range(self.n):
            block = order[offsets[i]:offsets[i + 1]]
            d = block.shape[0]
            if d < 2:
                continue
            a, b = np.triu_indices(d, k=1)
            pair_edges.append(block[a])
            pair_users.append(children[block[b]])
        if pair_edges:
            return np.concatenate(pair_edges), np.concatenate(pair_users)
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    def _build_arrays(self) -> None:
        g = self.graph
        n, T, E = self.n, self.T, self._E
        nv = self.num_variables
        fa = self.frontier_advancing
        mem = self._norm_mem
        INF = np.inf

        # ---- Objective, integrality, variable bounds. -----------------------
        c = np.zeros(nv)
        c[: self.num_r] = (g.cost_vector / self._cost_scale)[self._r_i]
        integrality = np.ones(nv)
        integrality[self.u_slice] = 0.0
        lb = np.zeros(nv)
        ub = np.ones(nv)
        if fa:
            # (8a): the frontier node of each stage is computed.
            t_arr = np.arange(T, dtype=np.int64)
            lb[self._r(t_arr, t_arr)] = 1.0
        else:
            # (1d): no checkpoints into the first stage.
            ub[self._s_base: self._s_base + n] = 0.0
        self._integrality = integrality
        self._lb = lb
        self._ub_template = ub
        self._c = c

        # ---- Constraint row layout. -----------------------------------------
        act_t, act_e = self._active_stage_edges()
        n_1b = act_t.shape[0]  # == num_free: one (1b) row per active edge
        base_1c = n_1b
        n_1c = T * (T - 1) // 2 if fa else (T - 1) * n
        base_1e = base_1c + n_1c
        n_1e = 0 if fa else 1
        base_free = base_1e + n_1e
        base_mem = base_free + 2 * self.num_free
        n_mem = self.num_u  # one row per (t, k in stage)
        num_rows = base_mem + n_mem

        def row_1b(t, e):
            return self._cum_edges[t] + e

        if fa:
            def row_1c(t, i):
                return base_1c + t * (t - 1) // 2 + i

            def row_mem(t, k):
                return base_mem + t * (t + 1) // 2 + k
        else:
            def row_1c(t, i):
                return base_1c + (t - 1) * n + i

            def row_mem(t, k):
                return base_mem + t * n + k

        def row_7b(t, e):
            return base_free + 2 * (self._cum_edges[t] + e)

        rows = []
        cols = []
        vals = []

        def emit(r, col, val) -> None:
            rows.append(np.asarray(r, dtype=np.int64))
            cols.append(np.asarray(col, dtype=np.int64))
            v = np.asarray(val, dtype=np.float64)
            vals.append(np.broadcast_to(v, rows[-1].shape) if v.ndim == 0 else v)

        con_lb = np.full(num_rows, -INF)
        con_ub = np.zeros(num_rows)

        # ---- (1b): R[t,j] <= R[t,i] + S[t,i] for every active edge. ---------
        act_parent = self._edge_parent[act_e]
        act_child = self._edge_child[act_e]
        r1b = row_1b(act_t, act_e)
        emit(r1b, self._r(act_t, act_child), 1.0)
        emit(r1b, self._r(act_t, act_parent), -1.0)
        # The parent is always checkpointable: i < j <= t (frontier), or
        # unconditionally in the unpartitioned variant.
        emit(r1b, self._s(act_t, act_parent), -1.0)
        # con_lb/ub already (-inf, 0) for this block.

        # ---- (1c): S[t,i] <= R[t-1,i] + S[t-1,i]. ---------------------------
        if fa:
            ct, ci = np.tril_indices(T, k=-1)
        else:
            ct = np.repeat(np.arange(1, T, dtype=np.int64), n)
            ci = np.tile(np.arange(n, dtype=np.int64), max(T - 1, 0))
        r1c = row_1c(ct, ci)
        emit(r1c, self._s(ct, ci), 1.0)
        emit(r1c, self._r(ct - 1, ci), -1.0)
        if fa:
            prev_ckpt = ci < ct - 1  # S[t-1, i] only exists for i < t-1
            emit(r1c[prev_ckpt], self._s(ct[prev_ckpt] - 1, ci[prev_ckpt]), -1.0)
        else:
            emit(r1c, self._s(ct - 1, ci), -1.0)
        # con bounds (-inf, 0) already set.

        # ---- (1e), unpartitioned only: terminal node computed at least once.
        if not fa:
            t_arr = np.arange(T, dtype=np.int64)
            emit(np.full(T, base_1e, dtype=np.int64), self._r(t_arr, n - 1), 1.0)
            con_lb[base_1e] = 1.0
            con_ub[base_1e] = INF

        # ---- FREE linearization (7b) and (7c). ------------------------------
        # num_hazards(t,i,k) = (1 - R[t,k]) + S[t+1,i] + sum_{j in USERS[i], j>k} R[t,j]
        f_var = self._free_base + self._cum_edges[act_t] + act_e
        r7b = row_7b(act_t, act_e)
        r7c = r7b + 1
        emit(r7b, f_var, -1.0)
        emit(r7b, self._r(act_t, act_child), 1.0)
        emit(r7c, self._r(act_t, act_child), -1.0)
        has_next = act_t + 1 < T  # S[t+1, i] exists (i < k <= t < t+1 is automatic)
        emit(r7b[has_next], self._s(act_t[has_next] + 1, act_parent[has_next]), -1.0)
        emit(r7c[has_next], self._s(act_t[has_next] + 1, act_parent[has_next]), 1.0)

        # Later-user hazard terms, expanded over the stages where they apply:
        # pair (edge (i,k), user j) is live for t >= j (frontier) / every t.
        pair_edge, pair_user = self._later_user_pairs()
        if fa:
            reps = T - pair_user
            pe = np.repeat(pair_edge, reps)
            pj = np.repeat(pair_user, reps)
            pt = np.repeat(pair_user, reps) + _ramp(reps)
        else:
            P = pair_edge.shape[0]
            pe = np.repeat(pair_edge, T)
            pj = np.repeat(pair_user, T)
            pt = _ramp(np.full(P, T, dtype=np.int64))
        f_pair = self._cum_edges[pt] + pe  # 0-based index within the FREE block
        emit(row_7b(pt, pe), self._r(pt, pj), -1.0)
        emit(row_7b(pt, pe) + 1, self._r(pt, pj), 1.0)

        # kappa per FREE variable = 2 + (number of later-user hazard terms).
        kappa = 2.0 + np.bincount(f_pair, minlength=self.num_free).astype(np.float64)
        f_all = self._cum_edges[act_t] + act_e  # FREE index of each active pair
        emit(r7c, f_var, kappa[f_all])
        con_ub[base_free + 1: base_mem: 2] = kappa - 1.0
        # (7b) rows keep (-inf, 0).

        # ---- Memory accounting recurrence (Eq. 2-3). -------------------------
        # Stage-opening rows: U[t,0] - sum_i M_i S[t,i] - M_0 R[t,0] = overhead.
        t_arr = np.arange(T, dtype=np.int64)
        r_open = row_mem(t_arr, 0)
        emit(r_open, self._u(t_arr, 0), 1.0)
        emit(r_open, self._r(t_arr, 0), -float(mem[0]))
        if fa:
            st, si = np.tril_indices(T, k=-1)
        else:
            st = np.repeat(t_arr, n)
            si = np.tile(np.arange(n, dtype=np.int64), T)
        emit(row_mem(st, 0), self._s(st, si), -mem[si])
        con_lb[r_open] = self._norm_overhead
        con_ub[r_open] = self._norm_overhead

        # Within-stage recurrence:
        # U[t,k] - U[t,k-1] - M_k R[t,k] + sum_{i in DEPS[k-1]} M_i FREE[t,i,k-1] = 0.
        if fa:
            mt, mi = np.tril_indices(T, k=-1)
            mk = mi + 1  # k runs over 1..t
        else:
            mt = np.repeat(t_arr, max(n - 1, 0))
            mk = np.tile(np.arange(1, n, dtype=np.int64), T)
        r_rec = row_mem(mt, mk)
        emit(r_rec, self._u(mt, mk), 1.0)
        emit(r_rec, self._u(mt, mk - 1), -1.0)
        emit(r_rec, self._r(mt, mk), -mem[mk])
        # FREE contributions: edge e with child c appears in the row (t, c+1)
        # for every stage t where both c and c+1 are in the stage.
        if fa:
            reps = np.maximum(T - 1 - self._edge_child, 0)
            ge = np.repeat(np.arange(E, dtype=np.int64), reps)
            gt = np.repeat(self._edge_child + 1, reps) + _ramp(reps)
        else:
            keep = np.flatnonzero(self._edge_child <= n - 2)
            ge = np.repeat(keep, T)
            gt = _ramp(np.full(keep.shape[0], T, dtype=np.int64))
        gc_child = self._edge_child[ge]
        emit(row_mem(gt, gc_child + 1), self._free(gt, ge), mem[self._edge_parent[ge]])
        con_lb[r_rec] = 0.0
        con_ub[r_rec] = 0.0

        all_rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        all_cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
        all_vals = np.concatenate(vals) if vals else np.zeros(0)
        self._A = sparse.coo_matrix(
            (all_vals, (all_rows, all_cols)), shape=(num_rows, nv)
        ).tocsr()
        self._con_lb = con_lb
        self._con_ub = con_ub
        self._c_unnormalized = self.graph.cost_vector[self._r_i]

    # ------------------------------------------------------------------ #
    # Per-budget instantiation
    # ------------------------------------------------------------------ #
    def with_budget(self, budget: float) -> FormulationArrays:
        """Solver-ready arrays for one budget; only ``ub[u_slice]`` is patched.

        Everything except the returned ``ub`` vector is shared with every
        other budget (read-only by contract).  Raises
        :class:`InfeasibleBudgetError` when the budget cannot fit the constant
        input/parameter overhead.
        """
        budget = float(budget)
        if budget < self.graph.constant_overhead:
            raise InfeasibleBudgetError(
                f"budget {budget:.3g} B is below the constant input/parameter "
                f"overhead {self.graph.constant_overhead:.3g} B"
            )
        with get_tracer().span("re-budget"):
            ub = self._ub_template.copy()
            ub[self.u_slice] = budget / self._mem_scale
        return FormulationArrays(
            c=self._c,
            integrality=self._integrality,
            lb=self._lb,
            ub=ub,
            A=self._A,
            constraint_lb=self._con_lb,
            constraint_ub=self._con_ub,
        )

    # ------------------------------------------------------------------ #
    # Infeasibility shortcuts (warm sweeps / Pareto bisection)
    # ------------------------------------------------------------------ #
    def budget_floor(self) -> float:
        """Cached arithmetic floor on integral-feasible budgets (frontier only).

        See :func:`~repro.solvers.warm.min_feasible_budget_floor`; only
        meaningful for the frontier-advancing variant (and never applied to
        the LP relaxation).
        """
        if self._budget_floor is None:
            from .warm import min_feasible_budget_floor

            self._budget_floor = min_feasible_budget_floor(self.graph)
        return self._budget_floor

    def note_infeasible_budget(self, budget: float, *, integral: bool) -> None:
        """Record a solver-proven infeasible budget in the monotone memo."""
        key = "ilp" if integral else "lp"
        budget = float(budget)
        with self._infeasible_lock:
            if budget > self._max_infeasible[key]:
                self._max_infeasible[key] = budget

    def known_infeasible_budget(self, budget: float, *, integral: bool) -> bool:
        """Whether the memo already proves this budget infeasible.

        An LP-infeasible budget bound applies to both modes; an ILP bound only
        to integral solves (the relaxation may still be feasible below it).
        """
        budget = float(budget)
        with self._infeasible_lock:
            if budget <= self._max_infeasible["lp"]:
                return True
            return integral and budget <= self._max_infeasible["ilp"]

    # ------------------------------------------------------------------ #
    # Vectorized decoding
    # ------------------------------------------------------------------ #
    def decode_matrices(self, x: np.ndarray, *, threshold: float = 0.5) -> ScheduleMatrices:
        """Convert a solution vector into dense ``(R, S)`` 0/1 matrices."""
        x = np.asarray(x)
        R = np.zeros((self.T, self.n), dtype=np.uint8)
        S = np.zeros((self.T, self.n), dtype=np.uint8)
        R[self._r_t, self._r_i] = x[: self.num_r] > threshold
        S[self._s_t, self._s_i] = x[self._s_base: self._s_base + self.num_s] > threshold
        if self.frontier_advancing:
            np.fill_diagonal(R, 1)  # (8a) may be returned as 0.9999... by LP solvers
        return ScheduleMatrices(R, S)

    def start_entries(self, matrices: ScheduleMatrices) -> Tuple[np.ndarray, np.ndarray]:
        """A schedule's ``R`` and ``S`` blocks as a sparse MIP start
        ``(indices, values)``; the solver completes ``FREE`` and ``U``."""
        values = np.concatenate((matrices.R[self._r_t, self._r_i],
                                 matrices.S[self._s_t, self._s_i]))
        return np.arange(self._s_base + self.num_s), values.astype(np.float64)

    def decode_fractional(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the fractional ``(R*, S*)`` matrices of an LP-relaxation solution."""
        x = np.asarray(x, dtype=np.float64)
        R = np.zeros((self.T, self.n), dtype=np.float64)
        S = np.zeros((self.T, self.n), dtype=np.float64)
        R[self._r_t, self._r_i] = x[: self.num_r]
        S[self._s_t, self._s_i] = x[self._s_base: self._s_base + self.num_s]
        return R, S

    def objective_value(self, x: np.ndarray) -> float:
        """Un-normalized objective (total recomputation cost) as one dot product."""
        return float(self._c_unnormalized @ np.asarray(x)[: self.num_r])

    def unnormalized_bound(self, bound: Optional[float]) -> Optional[float]:
        """A bound on the solver's normalized objective ``c``, in the
        ``compute_cost`` units :meth:`objective_value` reports."""
        return None if bound is None else float(bound) * self._cost_scale

    def describe(self) -> str:
        """Human readable summary of problem dimensions (for logs and reports)."""
        return (
            f"MILP[{'frontier' if self.frontier_advancing else 'unpartitioned'},compiled] "
            f"graph={self.graph.name!r} n={self.n} T={self.T} "
            f"vars={self.num_variables} (R={self.num_r}, S={self.num_s}, "
            f"FREE={self.num_free}, U={self.num_u})"
        )


class FormulationCache:
    """Per-process LRU of :class:`CompiledFormulation` keyed by graph structure.

    The key is ``(structural hash, variant, num_stages)``; see
    :func:`~repro.analysis.analyses.structural_graph_hash` for why names,
    layer ids and ``meta`` stay out of it, so isomorphic graphs share one
    compiled formulation per process.  Lookups are single-flighted: racing
    sweep workers compile a cold key once (``stats()['compiles']`` counts it).
    """

    def __init__(self, max_entries: int = 64) -> None:
        self._lru: SingleFlightLRU[tuple, CompiledFormulation] = SingleFlightLRU(max_entries)

    def get(
        self,
        graph: DFGraph,
        *,
        frontier_advancing: bool = True,
        num_stages: Optional[int] = None,
    ) -> CompiledFormulation:
        """Return the compiled formulation for a graph, compiling on first use."""
        T = int(num_stages) if num_stages is not None else graph.size
        key = (structural_graph_hash(graph), bool(frontier_advancing), T)

        def compile_() -> CompiledFormulation:
            with get_tracer().span("compile", graph=graph.name):
                return CompiledFormulation(
                    graph, frontier_advancing=frontier_advancing,
                    num_stages=num_stages,
                )

        return self._lru.get_or_compute(key, compile_)

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, object]:
        """One consistent snapshot of the cache counters."""
        stats = self._lru.stats()
        stats["compiles"] = stats.pop("computes")
        return stats


_formulation_cache = FormulationCache()
_formulation_cache_lock = threading.Lock()


def get_formulation_cache() -> FormulationCache:
    """The process-wide formulation cache shared by every solver invocation."""
    return _formulation_cache


def set_formulation_cache(cache: FormulationCache) -> FormulationCache:
    """Swap the process-wide cache (tests / isolation); returns the old one."""
    global _formulation_cache
    with _formulation_cache_lock:
        previous, _formulation_cache = _formulation_cache, cache
        return previous


def formulation_and_arrays(
    graph: DFGraph,
    budget: float,
    *,
    frontier_advancing: bool = True,
    num_stages: Optional[int] = None,
):
    """One entry point for the solvers: ``(formulation, solver-ready arrays)``.

    The :class:`CompiledFormulation` comes from the per-process
    :class:`FormulationCache` and the arrays from :meth:`with_budget`, which
    raises :class:`InfeasibleBudgetError` for budgets below the constant
    overhead.
    """
    compiled = get_formulation_cache().get(
        graph, frontier_advancing=frontier_advancing, num_stages=num_stages
    )
    return compiled, compiled.with_budget(budget)
