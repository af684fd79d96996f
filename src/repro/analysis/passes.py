"""Fixed-point graph canonicalization: verified transforms with provenance.

The pass pipeline shrinks a :class:`~repro.core.dfgraph.DFGraph` *before* the
MILP is compiled, in the spirit of a compiler's canonicalization level: every
node removed deletes ``O(T)`` rows and columns from the formulation, so a
handful of fused nodes buys a measurable variables/nnz reduction (recorded in
``BENCH_PR9.json``).

Two transforms ship, both provably schedule-safe:

* :class:`DeadNodeElimination` -- drop nodes that cannot reach the loss or
  any gradient output.  The live set is ancestor-closed, so no kept node
  loses a dependency; dead nodes decode to all-zero ``R``/``S`` columns.
* :class:`ZeroCostChainFusion` -- merge a zero-cost single-input node ``j``
  (``flatten``, ``identity`` -- views in the original framework) into its
  sole dependency ``i``.  The fused node takes ``i``'s position and cost and
  the *sum* of both memories, and every consumer of either member is rewired
  to it.

The safety argument is the :class:`NodeProvenance` decode: a schedule solved
on the optimized graph maps back onto the original graph by copying the fused
node's ``R``/``S`` columns to every member.  Members are computed adjacently
in the same stage and are resident exactly when the fused node is, so the
decoded schedule's compute cost equals the optimized one's (the tail costs
zero) and its simulated peak equals the optimized peak byte for byte (the sum
``m_i + m_j`` is accounted wherever the members are).  The service's
:meth:`~repro.service.solve.SolveService.solve_canonicalized` re-checks both
equalities on every decode and the test-suite closes the loop with the PR 4
:class:`~repro.execution.report.ExecutionReport` (bit-exact outputs).

The converse direction -- that the *optimal* objective on the fused graph
equals the optimal on the original -- does not hold: the original graph may
free a fused member early where the fused graph holds both together.  At or
above the no-recompute peak both optima are ``sum(C)``; below it the fused
optimum can be higher (``deepblock`` at 0.7 of the way from its budget floor
to that peak: 3,669,428 vs 3,613,108 raw).  The ``--pr9`` mode of
``benchmarks/perf_formulation.py`` still compares objectives above that
peak, where both solves are liveness certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dfgraph import DFGraph, NodeInfo
from ..core.schedule import ScheduleMatrices
from .analyses import isomorphic_segment_groups, live_node_mask

__all__ = [
    "NodeProvenance",
    "DeadNodeElimination",
    "ZeroCostChainFusion",
    "PassManager",
    "OptimizationResult",
    "optimize_graph",
]


@dataclass(frozen=True)
class NodeProvenance:
    """Bidirectional node mapping between an original and an optimized graph.

    ``orig_to_opt[i]`` is the optimized-graph node carrying original node
    ``i`` (``None`` when ``i`` was eliminated as dead code); ``opt_to_orig[k]``
    lists the original members of optimized node ``k`` in ascending original
    order.  Provenances compose across passes, so one object maps the final
    fixed point all the way back to the graph the user handed in.
    """

    orig_to_opt: Tuple[Optional[int], ...]
    opt_to_orig: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def identity(n: int) -> "NodeProvenance":
        return NodeProvenance(tuple(range(n)), tuple((i,) for i in range(n)))

    @staticmethod
    def from_groups(n_original: int,
                    groups: Sequence[Tuple[int, ...]]) -> "NodeProvenance":
        orig_to_opt: List[Optional[int]] = [None] * n_original
        for k, members in enumerate(groups):
            for m in members:
                orig_to_opt[m] = k
        return NodeProvenance(tuple(orig_to_opt),
                              tuple(tuple(members) for members in groups))

    @property
    def original_size(self) -> int:
        return len(self.orig_to_opt)

    @property
    def optimized_size(self) -> int:
        return len(self.opt_to_orig)

    def compose(self, later: "NodeProvenance") -> "NodeProvenance":
        """Chain ``self`` (A -> B) with ``later`` (B -> C) into A -> C."""
        if later.original_size != self.optimized_size:
            raise ValueError(
                f"cannot compose: intermediate sizes differ "
                f"({self.optimized_size} vs {later.original_size})")
        opt_to_orig = tuple(
            tuple(sorted(m for b in members for m in self.opt_to_orig[b]))
            for members in later.opt_to_orig
        )
        orig_to_opt = tuple(
            later.orig_to_opt[b] if b is not None else None
            for b in self.orig_to_opt
        )
        return NodeProvenance(orig_to_opt, opt_to_orig)

    def decode_matrices(self, original: DFGraph,
                        matrices: ScheduleMatrices) -> ScheduleMatrices:
        """Map an optimized-graph schedule back onto the original graph.

        Every member of optimized node ``k`` inherits ``k``'s ``R`` and ``S``
        columns: members are computed adjacently in the same stage (head
        first -- ascending original order is a valid topological order within
        a fused chain) and checkpointed together.  Eliminated nodes get
        all-zero columns -- they are never computed, which is valid because
        no live node depends on a dead one.  The result validates under
        ``frontier_advancing=False`` (it has the optimized graph's stage
        count, not the original node count).
        """
        if matrices.num_nodes != self.optimized_size:
            raise ValueError(
                f"schedule width {matrices.num_nodes} does not match the "
                f"optimized graph size {self.optimized_size}")
        if original.size != self.original_size:
            raise ValueError(
                f"graph size {original.size} does not match the provenance's "
                f"original size {self.original_size}")
        T = matrices.num_stages
        R = np.zeros((T, original.size), dtype=np.uint8)
        S = np.zeros((T, original.size), dtype=np.uint8)
        for k, members in enumerate(self.opt_to_orig):
            cols = list(members)
            R[:, cols] = matrices.R[:, [k]]
            S[:, cols] = matrices.S[:, [k]]
        return ScheduleMatrices(R, S)

    def to_dict(self) -> dict:
        return {
            "orig_to_opt": list(self.orig_to_opt),
            "opt_to_orig": [list(m) for m in self.opt_to_orig],
        }


def _project(graph: DFGraph, groups: Sequence[Tuple[int, ...]],
             name: str) -> DFGraph:
    """Rebuild ``graph`` with each group of nodes collapsed into one node.

    Groups must be listed in ascending head (minimum-member) order; edges
    between groups are deduplicated, edges internal to a group disappear, and
    edges to nodes outside every group (dead code) are dropped.  The merged
    node sums its members' costs and memories, so ``total_cost`` and
    ``total_activation_memory`` are preserved by fusion.  The optimized graph
    carries no ``meta``: builder metadata (``op_types``, ``grad_index``...)
    is positional and would be inconsistent after a rewrite -- consumers that
    need it (execution binding, segmenting baselines) work on the *original*
    graph, which is what provenance-decoded schedules target.
    """
    index_of: Dict[int, int] = {}
    for k, members in enumerate(groups):
        for m in members:
            index_of[m] = k
    nodes: List[NodeInfo] = []
    deps: Dict[int, List[int]] = {}
    for k, members in enumerate(groups):
        head = graph.nodes[members[0]]
        if len(members) == 1:
            nodes.append(head)
        else:
            nodes.append(NodeInfo(
                name="+".join(graph.nodes[m].name for m in members),
                cost=float(sum(graph.nodes[m].cost for m in members)),
                memory=int(sum(graph.nodes[m].memory for m in members)),
                is_backward=head.is_backward,
                layer_id=head.layer_id,
            ))
        parents = set()
        for m in members:
            for p in graph.deps[m]:
                kp = index_of.get(p)
                if kp is not None and kp != k:
                    parents.add(kp)
        deps[k] = sorted(parents)
    return DFGraph(nodes=nodes, deps=deps, input_memory=graph.input_memory,
                   parameter_memory=graph.parameter_memory, name=name,
                   meta={})


def _canonical_name(graph: DFGraph) -> str:
    return graph.name if graph.name.endswith("@canon") else f"{graph.name}@canon"


class DeadNodeElimination:
    """Remove nodes that cannot influence the loss or any gradient output.

    Note that training graphs built by
    :func:`~repro.autodiff.make_training_graph` are never affected: every
    forward node there has a gradient sink, so everything is live.  The pass
    earns its keep on hand-built and imported graphs (debug heads, abandoned
    branches) and keeps the linter's ``R001`` diagnostic honest -- what it
    warns about is exactly what this pass would delete.
    """

    name = "dce"

    def run(self, graph: DFGraph) -> Optional[Tuple[DFGraph, NodeProvenance]]:
        mask = live_node_mask(graph)
        if bool(mask.all()):
            return None
        groups = [(int(i),) for i in np.flatnonzero(mask)]
        new_graph = _project(graph, groups, _canonical_name(graph))
        return new_graph, NodeProvenance.from_groups(graph.size, groups)


class ZeroCostChainFusion:
    """Fuse a zero-cost single-input node into its sole dependency.

    Candidate pair ``(i, j)``: ``deps(j) == (i,)``, ``cost(j) == 0.0``
    exactly, matching ``is_backward`` flags, and ``j`` is not the terminal
    node (the terminal's identity anchors constraint (1e)).  Consumers of
    either member are rewired to the fused node, whose memory is the sum
    ``m_i + m_j`` -- both values are held whenever the fused node is
    resident, which is what makes the provenance decode peak-exact.

    One pairwise round per invocation, disjoint pairs only; the
    :class:`PassManager`'s fixed-point loop collapses longer chains
    (``i -> j -> l``) across successive rounds.
    """

    name = "fusion"

    def run(self, graph: DFGraph) -> Optional[Tuple[DFGraph, NodeProvenance]]:
        merged: Dict[int, int] = {}  # tail j -> head i
        used: set = set()
        for j in range(graph.size):
            if j == graph.terminal_node or j in used:
                continue
            parents = graph.deps[j]
            if len(parents) != 1 or graph.cost(j) != 0.0:
                continue
            i = parents[0]
            if i in used or graph.nodes[i].is_backward != graph.nodes[j].is_backward:
                continue
            merged[j] = i
            used.add(i)
            used.add(j)
        if not merged:
            return None
        heads = {i: j for j, i in merged.items()}
        groups: List[Tuple[int, ...]] = []
        for v in range(graph.size):
            if v in merged:
                continue  # emitted with its head
            groups.append((v, heads[v]) if v in heads else (v,))
        new_graph = _project(graph, groups, _canonical_name(graph))
        return new_graph, NodeProvenance.from_groups(graph.size, groups)


@dataclass
class OptimizationResult:
    """A canonicalized graph plus the provenance and statistics behind it.

    ``stats`` follows the xi_optimizer convention -- one flat dict with a
    per-pass removal count, the number of fixed-point rounds, and the
    before/after sizes -- extended with edge counts, a convergence flag and
    the repeated-segment census from
    :func:`~repro.analysis.analyses.isomorphic_segment_groups`.
    """

    original: DFGraph
    graph: DFGraph
    provenance: NodeProvenance
    stats: Dict[str, object]

    @property
    def changed(self) -> bool:
        return self.graph.size != self.original.size

    def decode_matrices(self, matrices: ScheduleMatrices) -> ScheduleMatrices:
        return self.provenance.decode_matrices(self.original, matrices)


class PassManager:
    """Run a pass pipeline to a fixed point with a hard termination bound.

    Each round applies every pass once, threading the graph (and composing
    provenances) through; the loop stops when a full round changes nothing
    (``converged=True``) or after ``max_passes`` rounds (``converged=False``
    -- the bound is a safety net, every shipped pass strictly shrinks the
    node count so termination within ``n`` rounds is guaranteed anyway).
    """

    def __init__(self, passes: Optional[Sequence[object]] = None,
                 max_passes: int = 10) -> None:
        if max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        self.passes = list(passes) if passes is not None else [
            DeadNodeElimination(), ZeroCostChainFusion(),
        ]
        self.max_passes = int(max_passes)

    def run(self, graph: DFGraph) -> OptimizationResult:
        current = graph
        provenance = NodeProvenance.identity(graph.size)
        removed = {p.name: 0 for p in self.passes}
        rounds = 0
        converged = False
        while rounds < self.max_passes:
            rounds += 1
            changed = False
            for p in self.passes:
                out = p.run(current)
                if out is None:
                    continue
                new_graph, step = out
                removed[p.name] += current.size - new_graph.size
                current = new_graph
                provenance = provenance.compose(step)
                changed = True
            if not changed:
                converged = True
                break
        segments = isomorphic_segment_groups(graph)
        repeated = {d: segs for d, segs in segments.items() if len(segs) > 1}
        stats: Dict[str, object] = dict(removed)
        stats.update({
            "passes": rounds,
            "converged": converged,
            "original_size": graph.size,
            "optimized_size": current.size,
            "original_edges": graph.num_edges,
            "optimized_edges": current.num_edges,
            "nodes_removed": graph.size - current.size,
            "edges_removed": graph.num_edges - current.num_edges,
            "isomorphic_groups": len(repeated),
            "isomorphic_segments": sum(len(s) for s in repeated.values()),
        })
        return OptimizationResult(original=graph, graph=current,
                                  provenance=provenance, stats=stats)


def optimize_graph(graph: DFGraph, *, max_passes: int = 10,
                   passes: Optional[Sequence[object]] = None) -> OptimizationResult:
    """Canonicalize a graph with the default (or a custom) pass pipeline."""
    return PassManager(passes=passes, max_passes=max_passes).run(graph)
