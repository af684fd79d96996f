"""Pure structural analyses over :class:`~repro.core.dfgraph.DFGraph`.

Everything in this module is read-only: the functions inspect a graph and
return facts about it (liveness intervals, reachability sets, structural
digests, repeated-segment groupings).  The diagnostics in
:mod:`repro.analysis.lint` are built on these analyses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from ..core.dfgraph import DFGraph
from ..core.graph_utils import articulation_points

__all__ = [
    "liveness_intervals",
    "live_roots",
    "reachable_from",
    "live_node_mask",
    "dead_nodes",
    "structural_graph_hash",
    "isomorphic_segment_groups",
]


def liveness_intervals(graph: DFGraph) -> np.ndarray:
    """Per-node ``[definition, last_use]`` stage intervals, shape ``(n, 2)``.

    Under the canonical one-node-per-stage reading of the topological order
    (the checkpoint-all schedule), node ``i`` is defined at stage ``i`` and
    must stay resident until its highest-numbered consumer runs; a node with
    no consumers dies in its own stage.  This is the interval the paper's
    memory recurrence integrates over.
    """
    n = graph.size
    intervals = np.empty((n, 2), dtype=np.int64)
    for i in range(n):
        users = graph.successors(i)
        intervals[i, 0] = i
        intervals[i, 1] = max(users) if users else i
    return intervals


def live_roots(graph: DFGraph) -> List[int]:
    """The nodes whose values a training step must actually produce.

    The terminal node (the loss on a forward graph, the final gradient on a
    training graph) is always a root; on training graphs every backward sink
    is one too -- each is a parameter gradient the optimizer step consumes,
    even though nothing inside the graph reads it.  Forward sinks other than
    the terminal are *not* roots: a forward value nobody consumes cannot
    influence the loss and is dead code (lint ``R001``).
    """
    if graph.size == 0:
        return []
    roots: Set[int] = {graph.terminal_node}
    for i in graph.sinks():
        if graph.nodes[i].is_backward:
            roots.add(i)
    return sorted(roots)


def reachable_from(graph: DFGraph, roots: Iterable[int]) -> Set[int]:
    """``roots`` plus every transitive ancestor of a root.

    This is the set of nodes whose values can influence at least one root --
    the complement is dead code.  Ancestor-closed by construction: every
    parent of a reachable node is reachable, so dropping the complement
    would break no dependency of a kept node.
    """
    seen: Set[int] = set()
    stack = [r for r in roots if 0 <= r < graph.size]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(graph.predecessors(cur))
    return seen


def live_node_mask(graph: DFGraph) -> np.ndarray:
    """Boolean mask of nodes reachable from :func:`live_roots` (length ``n``)."""
    mask = np.zeros(graph.size, dtype=bool)
    for i in reachable_from(graph, live_roots(graph)):
        mask[i] = True
    return mask


def dead_nodes(graph: DFGraph) -> List[int]:
    """Nodes whose value cannot influence the loss or any gradient output."""
    return [int(i) for i in np.flatnonzero(~live_node_mask(graph))]


_STRUCTURAL_HASH_ATTR = "_repro_structural_hash"


def structural_graph_hash(graph: DFGraph) -> str:
    """SHA-256 digest of what a *solver* sees: costs, memories, edges, overhead.

    Deliberately narrower than
    :func:`~repro.service.hashing.graph_content_hash`: node names, layer ids,
    the graph name and the free-form ``meta`` mapping are all excluded,
    because none of them enter the MILP's objective, constraint matrix or
    bounds.  Two graphs with equal structural hashes therefore compile to
    byte-identical formulation arrays -- this is the key the
    :class:`~repro.solvers.compiled.FormulationCache` shares compiled blocks
    under, so the same residual stage rebuilt with different layer names (or
    different ``op_attrs``) compiles exactly once per process.

    Plans keep using the full content hash: ``op_attrs`` *do* change what an
    executed schedule computes, just not which schedule is optimal.

    Floats go through ``repr`` (shortest round-trip form), matching the
    content hash's convention: bit-equal costs hash equally, any perturbation
    changes the digest.  The digest is memoized on the instance -- every
    field it covers is immutable after ``__post_init__``.
    """
    cached = graph.__dict__.get(_STRUCTURAL_HASH_ATTR)
    if cached is not None:
        return cached
    payload = {
        "format": "repro.dfgraph-structural/v1",
        "nodes": [
            [repr(float(v.cost)), int(v.memory), bool(v.is_backward)]
            for v in graph.nodes
        ],
        "deps": [list(graph.deps[j]) for j in range(graph.size)],
        "input_memory": int(graph.input_memory),
        "parameter_memory": int(graph.parameter_memory),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    graph.__dict__[_STRUCTURAL_HASH_ATTR] = digest
    return digest


def isomorphic_segment_groups(graph: DFGraph) -> Dict[str, List[Tuple[int, ...]]]:
    """Group the forward pass's articulation-point segments by structural hash.

    The forward subgraph is cut at its articulation points -- the same cut
    vertices the ``AP`` baselines checkpoint at (paper Appendix B.1) -- into
    contiguous segments, each spanning two consecutive cut vertices
    inclusively.  Segments whose induced subgraphs have equal
    :func:`structural_graph_hash` are isomorphic as far as any solver is
    concerned: same costs, memories and internal wiring.  Repeated residual
    blocks and repeated stages land in one group, which is how the analysis
    statistics quantify "how much of this model is copy-pasted structure".

    Returns a mapping ``digest -> [segment, ...]`` with each segment a tuple
    of original node ids; only digests with at least one segment appear, and
    groups with two or more members are the repeated blocks.
    """
    forward = graph.forward_nodes()
    if len(forward) < 3:
        return {}
    cuts = articulation_points(graph, restrict_to=forward)
    boundaries = sorted(set(cuts) | {forward[0], forward[-1]})
    if len(boundaries) < 2:
        return {}
    forward_set = set(forward)
    groups: Dict[str, List[Tuple[int, ...]]] = {}
    for lo, hi in zip(boundaries, boundaries[1:]):
        segment = tuple(i for i in range(lo, hi + 1) if i in forward_set)
        if len(segment) < 2:
            continue
        digest = structural_graph_hash(graph.induced_subgraph(segment))
        groups.setdefault(digest, []).append(segment)
    return groups
