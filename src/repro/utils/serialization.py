"""JSON (de)serialization: schedules, graphs and solve results.

Checkmate solves the MILP once per (architecture, batch size, budget) and then
reuses the schedule for millions of training iterations, so schedules need to
be persistable.  With the solve-as-a-service daemon the same need extends to
the other two halves of a solve: clients upload a :class:`DFGraph` over the
wire and download a :class:`~repro.core.schedule.ScheduledResult`, and the
plan cache persists results across processes.  This module is the single wire
format for all three:

* :func:`schedule_to_json` / :func:`schedule_from_json` -- the ``(R, S)``
  decision matrices plus enough metadata to detect mismatched graphs.  The
  format is sparse (``repro.checkmate.schedule/v2``): each matrix is a list
  with one entry per stage holding the strictly ascending column indices of
  that stage's nonzeros, so encoding costs ``O(nnz)``, not ``O(T x n)`` --
  a resnet50 ``R`` has a few hundred nonzeros among ~21k entries.  The dense
  v1 format is not read: a v1 payload raises ``ValueError``, which the plan
  cache treats as a miss;
* :func:`graph_to_wire` / :func:`graph_from_wire` -- a complete
  :class:`DFGraph` (nodes, deps, memories, ``meta``).  Round-tripping
  preserves the content hash, so a graph uploaded to the solve server hits
  the same plan-cache entries as the original object;
* :func:`result_to_wire` / :func:`result_from_wire` -- a
  :class:`ScheduledResult` *without* its graph (results are resolved against
  the caller's graph on decode, so a corrupt payload degrades to an error,
  never to a silently wrong schedule).  The encode is memoized on the
  result, so a result is encoded once however often it is served.

``*_wire`` functions speak plain-JSON dicts (what an HTTP body or a cache
file holds after ``json.loads``); ``*_json`` convenience wrappers speak
strings.

Every decoder raises ``ValueError`` on a malformed payload (wrong format,
missing keys, wrong types), never ``KeyError``/``TypeError``/``IndexError``.
"""

from __future__ import annotations

import copy
import json
from itertools import chain
from typing import Optional, Union

import numpy as np

from ..core.dfgraph import DFGraph, NodeInfo
from ..core.schedule import ScheduleMatrices, ScheduledResult

__all__ = [
    "SCHEDULE_FORMAT",
    "GRAPH_FORMAT",
    "RESULT_FORMAT",
    "schedule_to_json",
    "schedule_from_json",
    "graph_to_wire",
    "graph_from_wire",
    "graph_to_json",
    "graph_from_json",
    "result_to_wire",
    "result_from_wire",
    "jsonable",
    "META_TAGS",
    "meta_list_tag",
]

SCHEDULE_FORMAT = "repro.checkmate.schedule/v2"
GRAPH_FORMAT = "repro.checkmate.dfgraph/v1"
RESULT_FORMAT = "repro.checkmate.result/v1"


def _to_indices(matrix: np.ndarray) -> list:
    """Per-stage lists of the ascending column indices of ``matrix``'s nonzeros."""
    stages, cols = np.nonzero(matrix)
    ends = np.cumsum(np.bincount(stages, minlength=matrix.shape[0])).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _from_indices(rows, n: int, name: str) -> np.ndarray:
    """Dense ``uint8`` matrix from :func:`_to_indices` output; every index
    must be an ``int`` in ``[0, n)`` and every row strictly ascending."""
    if not isinstance(rows, list) or not all(type(r) is list for r in rows):
        raise ValueError(f"schedule {name!r} must be a list of index lists")
    flat = list(chain.from_iterable(rows))
    if not all(type(c) is int for c in flat):
        raise ValueError(f"schedule {name!r} indices must be integers")
    if flat and (min(flat) < 0 or max(flat) >= n):
        raise ValueError(f"schedule {name!r} index out of range [0, {n})")
    cols = np.array(flat, dtype=np.int64)
    stages = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    if np.any(np.diff(cols)[stages[1:] == stages[:-1]] <= 0):
        raise ValueError(f"schedule {name!r} rows must be strictly ascending")
    dense = np.zeros((len(rows), n), dtype=np.uint8)
    dense[stages, cols] = 1
    return dense


def schedule_to_json(graph: DFGraph, matrices: ScheduleMatrices, *, strategy: str = "") -> str:
    """Serialize a schedule to a JSON string in the sparse v2 format.

    ``R`` and ``S`` travel as one list per stage of the ascending column
    indices of their nonzeros, so the payload grows with the schedule's
    nonzeros rather than with ``T x n``.
    """
    payload = {
        "format": SCHEDULE_FORMAT,
        "graph_name": graph.name,
        "graph_size": graph.size,
        "graph_num_edges": graph.num_edges,
        "strategy": strategy,
        "R": _to_indices(matrices.R),
        "S": _to_indices(matrices.S),
    }
    return json.dumps(payload, separators=(",", ":"))


def schedule_from_json(data: str, graph: Optional[DFGraph] = None) -> ScheduleMatrices:
    """Load a sparse v2 schedule, optionally validating it against a graph.

    Any malformed payload -- another format (including the dense v1), a
    non-list row, a non-``int`` or out-of-range index, stage counts that
    differ between ``R`` and ``S``, or a ``graph_size`` that does not match
    ``graph`` -- raises ``ValueError``.
    """
    try:
        payload = json.loads(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed schedule payload: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != SCHEDULE_FORMAT:
        raise ValueError("not a serialized repro schedule")
    n = payload.get("graph_size")
    if type(n) is not int or n < 0:
        raise ValueError("schedule 'graph_size' must be a non-negative integer")
    if graph is not None and n != graph.size:
        raise ValueError(
            f"schedule was produced for a graph with {n} nodes, "
            f"but the supplied graph has {graph.size}"
        )
    R = _from_indices(payload.get("R"), n, "R")
    S = _from_indices(payload.get("S"), n, "S")
    if R.shape != S.shape:
        raise ValueError(f"schedule has {R.shape[0]} stages in 'R' but "
                         f"{S.shape[0]} in 'S'")
    return ScheduleMatrices(R, S)


# --------------------------------------------------------------------------- #
# meta encoding
# --------------------------------------------------------------------------- #
# ``DFGraph.meta`` is typed ``Dict[str, object]`` but in practice holds two
# shapes JSON cannot represent natively: dicts with integer keys (the
# autodiff ``grad_index`` that the segmenting baselines index with ints) and
# numpy arrays/scalars.  Both are encoded as tagged lists so that decoding
# restores the exact Python types -- a round-tripped graph must produce the
# same ``graph_content_hash`` as the original, and the baselines must keep
# working on it.  numpy scalars become their Python equivalents (``np.bool_``
# becomes ``bool``), which the content hash does not tell apart.

#: Reserved first elements of the tagged lists that spell ``meta`` values,
#: shared by the wire format and the content hash.  A user list whose first
#: element is one of them is escaped as ``[META_TAGS["list"], *items]``, so no
#: plain list ever reads as a tagged value (and the escape tag escapes itself).
META_TAGS = {"dict": "__kvdict__", "ndarray": "__ndarray__", "list": "__list__"}
_RESERVED_TAGS = frozenset(META_TAGS.values())
_DICT_TAG, _NDARRAY_TAG, _LIST_TAG = (META_TAGS["dict"], META_TAGS["ndarray"],
                                      META_TAGS["list"])


def meta_list_tag(items: list) -> Optional[str]:
    """The reserved tag ``items`` starts with, or ``None``."""
    head = items[0] if items else None
    return head if isinstance(head, str) and head in _RESERVED_TAGS else None


def _encode_meta(value):
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode_meta(v) for k, v in value.items()}
        return [_DICT_TAG, [[_encode_meta(k), _encode_meta(v)]
                            for k, v in value.items()]]
    if isinstance(value, np.ndarray):
        return [_NDARRAY_TAG, value.dtype.str, list(value.shape), value.tolist()]
    if isinstance(value, (list, tuple)):
        items = [_encode_meta(v) for v in value]
        return [_LIST_TAG, *items] if meta_list_tag(items) else items
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"meta value {value!r} of type {type(value).__name__} "
                    "is not wire-serializable")


def _decode_meta(value):
    if isinstance(value, dict):
        return {k: _decode_meta(v) for k, v in value.items()}
    if isinstance(value, list):
        tag = meta_list_tag(value)
        if tag == _LIST_TAG:
            return [_decode_meta(v) for v in value[1:]]
        if tag == _DICT_TAG and len(value) == 2:
            return {_decode_meta(k): _decode_meta(v) for k, v in value[1]}
        if tag == _NDARRAY_TAG and len(value) == 4:
            return np.asarray(value[3], dtype=np.dtype(value[1])).reshape(value[2])
        if tag is not None:
            raise ValueError(f"malformed {tag!r} meta value")
        return [_decode_meta(v) for v in value]
    return value


# --------------------------------------------------------------------------- #
# DFGraph wire format
# --------------------------------------------------------------------------- #
def graph_to_wire(graph: DFGraph) -> dict:
    """Serialize a :class:`DFGraph` to a plain-JSON dict.

    The payload covers everything that participates in the content hash
    (nodes, deps, input/parameter memory, name, ``meta``), so
    ``graph_content_hash(graph_from_wire(graph_to_wire(g))) ==
    graph_content_hash(g)``.
    """
    return {
        "format": GRAPH_FORMAT,
        "name": graph.name,
        "nodes": [[v.name, float(v.cost), int(v.memory), bool(v.is_backward),
                   v.layer_id] for v in graph.nodes],
        "deps": {str(j): list(graph.deps[j]) for j in range(graph.size)},
        "input_memory": int(graph.input_memory),
        "parameter_memory": int(graph.parameter_memory),
        "meta": _encode_meta(graph.meta),
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(valid):
    return lambda value: isinstance(value, list) and all(map(valid, value))


#: The meta values that analyses, cost models and the executor trust:
#: ``name -> (check, description)``.
_META_CHECKS = {
    "n_forward": (_is_int, "an integer"),
    "op_types": (_list_of(lambda t: isinstance(t, str)), "a list of strings"),
    "grad_index": (lambda v: isinstance(v, dict) and all(
        _is_int(k) and _is_int(i) for k, i in v.items()),
        "a map of integers to integers"),
    "shapes": (_list_of(_list_of(_is_int)), "a list of integer lists"),
    "op_attrs": (_list_of(lambda a: isinstance(a, dict)), "a list of objects"),
}


def graph_from_wire(payload: dict) -> DFGraph:
    """Reconstruct a :class:`DFGraph` from :func:`graph_to_wire` output."""
    if not isinstance(payload, dict) or payload.get("format") != GRAPH_FORMAT:
        raise ValueError("not a serialized repro DFGraph")
    meta = payload.get("meta") or {}
    if not (isinstance(payload.get("nodes"), list)
            and isinstance(payload.get("deps"), dict) and isinstance(meta, dict)):
        raise ValueError("graph 'nodes' must be a list and 'deps'/'meta' objects")
    try:
        nodes = [NodeInfo(name=str(n[0]), cost=float(n[1]), memory=int(n[2]),
                          is_backward=bool(n[3]),
                          layer_id=None if n[4] is None else int(n[4]))
                 for n in payload["nodes"]]
        deps = {int(j): [int(i) for i in parents]
                for j, parents in payload["deps"].items()}
        input_memory = int(payload.get("input_memory", 0))
        parameter_memory = int(payload.get("parameter_memory", 0))
        meta = _decode_meta(meta)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph payload: {type(exc).__name__}: "
                         f"{exc}") from None
    for name, (valid, what) in _META_CHECKS.items():
        value = meta.get(name)
        if value is not None and not valid(value):
            raise ValueError(f"graph meta {name!r} must be {what}")
    return DFGraph(nodes=nodes, deps=deps, input_memory=input_memory,
                   parameter_memory=parameter_memory,
                   name=str(payload.get("name", "graph")), meta=meta)


def graph_to_json(graph: DFGraph) -> str:
    """String-typed convenience wrapper around :func:`graph_to_wire`."""
    return json.dumps(graph_to_wire(graph))


def graph_from_json(data: Union[str, bytes, dict]) -> DFGraph:
    """Accept a JSON string (or an already-parsed dict) and decode the graph."""
    payload = json.loads(data) if isinstance(data, (str, bytes)) else data
    return graph_from_wire(payload)


# --------------------------------------------------------------------------- #
# ScheduledResult wire format
# --------------------------------------------------------------------------- #
def jsonable(value):
    """Best-effort projection of a result's ``extra`` dict onto plain JSON.

    NumPy scalars become Python numbers and tuples become lists; keys whose
    values still refuse to serialize are dropped rather than failing the
    encode -- a payload with partial ``extra`` beats no payload.
    """
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            try:
                json.dumps(converted := jsonable(v))
            except (TypeError, ValueError):
                continue
            out[str(k)] = converted
        return out
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def result_to_wire(result: ScheduledResult) -> dict:
    """Serialize a :class:`ScheduledResult` to a plain-JSON dict.

    The graph itself is *not* embedded (the caller already has it -- a server
    client uploaded it, a cache lookup supplied it); the schedule payload
    carries the graph size so decode-time mismatches are detected.
    ``"schedule"`` is the :func:`schedule_to_json` *string* -- the sparse v2
    encoding of ``(R, S)``, a few KB even for resnet50 -- or ``None`` for
    an infeasible result.

    ``compute_cost`` is ``None`` when not finite (infeasible results carry
    ``float("inf")``, which strict JSON per RFC 8259 cannot represent --
    non-Python clients would choke on a bare ``Infinity`` token).  Decoding
    recomputes the metrics from the schedule anyway, so nothing is lost.

    The dict is built once per result and memoized on it (results are
    immutable): every later call -- a plan-cache hit, the disk tier, a
    worker's result reaching the parent -- returns a fresh copy of the memo,
    so a caller mutating its copy cannot change the next encode.
    """
    if result._wire is None:
        result._wire = _result_wire(result)
    return copy.deepcopy(result._wire)


def _result_wire(result: ScheduledResult) -> dict:
    import math

    cost = float(result.compute_cost)
    return {
        "format": RESULT_FORMAT,
        "strategy": result.strategy,
        "budget": result.budget,
        "feasible": bool(result.feasible),
        "solver_status": result.solver_status,
        "solve_time_s": float(result.solve_time_s),
        "compute_cost": cost if math.isfinite(cost) else None,
        "peak_memory": int(result.peak_memory),
        "extra": jsonable(result.extra),
        "schedule": (schedule_to_json(result.graph, result.matrices,
                                      strategy=result.strategy)
                     if result.matrices is not None else None),
    }


def result_from_wire(payload: dict, graph: DFGraph) -> ScheduledResult:
    """Rebuild a :class:`ScheduledResult` against the caller's ``graph``.

    The schedule matrices are re-validated and the derived metrics (compute
    cost, peak memory) recomputed from the graph, so a payload that does not
    match the graph raises ``ValueError`` instead of producing a wrong
    schedule.  The plan is lowered only if the caller reads ``.plan``.
    Every malformed payload -- a missing ``"strategy"``, a wrongly typed
    field, a schedule in another format (the dense v1 included) -- raises
    ``ValueError`` too.
    """
    from ..solvers.common import build_scheduled_result

    if not isinstance(payload, dict) or payload.get("format") != RESULT_FORMAT:
        raise ValueError("not a serialized repro solve result")
    budget, extra = payload.get("budget"), payload.get("extra") or {}
    if budget is not None and not _is_number(budget):
        raise ValueError("result 'budget' must be a number or null")
    if not isinstance(extra, dict):
        raise ValueError("result 'extra' must be an object")
    try:
        strategy = str(payload["strategy"])
        solve_time_s = float(payload.get("solve_time_s", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed result payload: {type(exc).__name__}: "
                         f"{exc}") from None
    matrices = (schedule_from_json(payload["schedule"], graph)
                if payload.get("schedule") else None)
    return build_scheduled_result(
        strategy, graph, matrices,
        budget=budget,
        feasible=bool(payload.get("feasible")),
        solve_time_s=solve_time_s,
        solver_status=str(payload.get("solver_status", "cached")),
        extra=extra,
    )
