"""Canonical content hashing of :class:`~repro.core.dfgraph.DFGraph`.

The plan cache is *content addressed*: a solve is keyed by what the graph
**is** (costs, memories, edges, structural metadata), not by how or when it was
built.  Two independently reconstructed graphs -- e.g. the same model preset
built in two processes, or a graph round-tripped through a serializer -- hash
identically, so cached schedules survive process restarts and are shared
across experiments that rebuild their own graphs.

The hash covers every field that influences a solver's output:

* node names, costs, memories, ``is_backward`` flags and layer ids,
* the dependency structure (all edges),
* ``input_memory`` / ``parameter_memory`` (they set the constant overhead of
  the memory budget, paper Eq. 2),
* the graph name and the ``meta`` mapping (``grad_index`` et al. steer the
  baselines' segmenting logic).

Floats are serialized via ``repr`` (shortest round-trip form), so bit-equal
costs hash equally and any perturbation changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..utils.serialization import META_TAGS, meta_list_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.dfgraph import DFGraph

__all__ = ["graph_content_hash"]

_HASH_ATTR = "_repro_content_hash"

#: Types :func:`_canonical_meta` passes through unchanged (exact types only:
#: subclasses such as ``IntEnum`` take the ``isinstance`` path below).
_PLAIN = frozenset((str, int, bool, type(None)))


def _canonical_meta(value):
    """Project a free-form ``meta`` value onto a canonical JSON-safe structure.

    ``meta`` is typed ``Dict[str, object]``, so values may be numpy arrays or
    scalars.  Arrays are expanded to (tag, shape, dtype, full contents) --
    ``repr`` would truncate large arrays, letting different contents collide
    -- numpy booleans become ``bool`` (their ``repr`` differs across numpy
    versions), and everything else is reduced to plain Python types.  A list
    that starts with a reserved tag (:data:`META_TAGS`) is escaped the way
    the wire format escapes it, so it never digests like an array.

    Plain scalars are recognised by exact type first, and list elements and
    dict values that are plain scalars are copied inline rather than through
    a recursive call: ``meta`` is mostly long lists of ints and strings.
    """
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is float:
        return repr(value)
    if isinstance(value, dict):
        pairs = sorted(((str(k), v) for k, v in value.items()),
                       key=itemgetter(0))
        return {k: v if type(v) in _PLAIN else _canonical_meta(v)
                for k, v in pairs}
    if isinstance(value, (list, tuple)):
        items = [v if type(v) in _PLAIN else _canonical_meta(v) for v in value]
        return [META_TAGS["list"], *items] if meta_list_tag(items) else items
    if isinstance(value, np.ndarray):
        return [META_TAGS["ndarray"], list(value.shape), value.dtype.str,
                value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (str, int)):
        return value
    return repr(value)


def _canonical_payload(graph: "DFGraph", meta) -> dict:
    return {
        "format": "repro.dfgraph/v1",
        "name": graph.name,
        "nodes": [
            [v.name, repr(float(v.cost)), int(v.memory), bool(v.is_backward),
             v.layer_id]
            for v in graph.nodes
        ],
        "deps": {str(j): list(graph.deps[j]) for j in range(graph.size)},
        "input_memory": int(graph.input_memory),
        "parameter_memory": int(graph.parameter_memory),
        "meta": meta,
    }


def _meta_snapshot(graph: "DFGraph"):
    """``graph.meta`` as pickle bytes, or ``None`` if it does not pickle."""
    try:
        return pickle.dumps(graph.meta, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - any pickling failure just skips the memo
        return None


def graph_content_hash(graph: "DFGraph") -> str:
    """Return the canonical SHA-256 content digest of a graph (hex string).

    The digest is memoized on the graph instance: nodes, deps and the scalar
    fields are effectively immutable after ``__post_init__`` and every
    transformation (``with_costs``, ``scaled``, ``induced_subgraph``...)
    returns a *new* instance.  The one mutable piece, ``meta``, is
    snapshotted as ``pickle`` bytes at memoization time, and a lookup is a
    byte compare against a fresh pickle; mutating ``graph.meta`` after a
    solve therefore invalidates the memo instead of serving a stale cache
    key.  Equal pickle bytes unpickle to equal values, so for the
    containers, scalars and numpy values ``meta`` holds a hit returns the
    digest a full walk would.  A ``meta`` that does not
    pickle (a lock, a lambda) is never memoized: its digest is recomputed on
    every call.

    The memo lives in the instance ``__dict__``, so it travels with a
    pickled graph: a worker process that receives a graph the parent has
    hashed answers from the memo.
    """
    snapshot = _meta_snapshot(graph)
    cached = graph.__dict__.get(_HASH_ATTR)
    if snapshot is not None and cached is not None and cached[1] == snapshot:
        return cached[0]
    payload = json.dumps(_canonical_payload(graph, _canonical_meta(graph.meta)),
                         sort_keys=True, separators=(",", ":"), default=repr)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if snapshot is not None:
        graph.__dict__[_HASH_ATTR] = (digest, snapshot)
    return digest
