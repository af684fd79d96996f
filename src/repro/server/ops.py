"""The serving operations, each declared once.

Every operation the solve daemon serves -- ``solve``, ``sweep``,
``execute``, ``pareto`` and ``lint`` -- is one :class:`Operation` entry in
:data:`OPERATIONS`, keyed by the name that is also its endpoint
(``POST /v1/<name>``).  An entry holds the operation's work type (whose
fields are its request schema), the service call that runs the work, the
result encoder and body key, and -- for queued operations -- the flight key
that single-flights identical submissions, the latency key the flight's
run time feeds and whether worker processes run it.  A result is encoded
once, where it is computed; a settled job keeps only that body.  The other
layers derive from the table: the HTTP routes and result bodies
(:mod:`repro.server.http`), flight keys, latency histograms and settled
bodies (:mod:`repro.server.jobs`), backend dispatch and the process-worker
request format (:mod:`repro.server.backends`),
:meth:`~repro.server.client.ServeClient.post` and the ``repro`` verbs, which
run an entry locally or through a daemon and render the same body.

Each request field name has one reader shared by every operation
(:func:`queue_fields` reads ``priority``, ``deadline_s`` and ``wait_s``); the
HTTP layer resolves the graph.

Adding an operation: a work dataclass (readers for any new field names), an
entry here, a one-line ``submit_<name>`` on :class:`~repro.server.jobs.JobQueue`
(if queued) and :class:`~repro.server.client.ServeClient`, and a ``repro``
verb rendering the result body; ``tests/test_ops.py`` checks the wiring.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Dict, Optional, Tuple

from ..core.dfgraph import DFGraph
from ..service import PlanCacheKey, SolveService, SolverOptions, SweepCell
from ..solvers.race import check_entrants
from ..utils import serialization
from ..utils.serialization import options_to_wire

__all__ = [
    "ApiError",
    "Operation",
    "OPERATIONS",
    "SolveWork",
    "SweepWork",
    "ExecuteWork",
    "ParetoWork",
    "LintWork",
    "MAX_WAIT_S",
    "operation_for",
    "queue_fields",
    "request_fields",
    "seconds",
]

_OPTION_FIELDS = frozenset(SolverOptions.__dataclass_fields__)


class ApiError(ValueError):
    """A request error with an HTTP status, rendered as a JSON body;
    ``headers`` are extra response headers, ``extra`` extra body keys."""

    def __init__(self, status: int, message: str, *,
                 headers: Optional[dict] = None,
                 extra: Optional[dict] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.extra = dict(extra or {})


# --------------------------------------------------------------------------- #
# Work descriptions (what one operation executes)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveWork:
    graph: DFGraph
    strategy: str
    budget: Optional[float] = None
    options: Optional[SolverOptions] = None


@dataclass(frozen=True)
class SweepWork:
    graph: DFGraph
    cells: Tuple[SweepCell, ...]
    options: Optional[SolverOptions] = None


@dataclass(frozen=True)
class ExecuteWork(SolveWork):
    seed: int = 0


@dataclass(frozen=True)
class ParetoWork:
    graph: DFGraph
    strategy: str = "checkmate_ilp"
    low: Optional[float] = None
    high: Optional[float] = None
    resolution: Optional[float] = None
    options: Optional[SolverOptions] = None


@dataclass(frozen=True)
class LintWork:
    graph: DFGraph
    budget: Optional[float] = None


# --------------------------------------------------------------------------- #
# Request fields: one reader per field name, shared by every operation
# --------------------------------------------------------------------------- #
def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ApiError(400, f"'{name}' (string) is required")
    return value


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(400, f"'{name}' must be an integer")
    return value


def _bytes(value, name: str, *, positive: bool = False) -> Optional[float]:
    """A byte count (budget, bound, resolution) or ``None``."""
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ApiError(400, f"'{name}' must be a finite number of bytes (or null)")
    if value < 0 or (positive and value == 0):
        raise ApiError(400, f"'{name}' must be "
                            f"{'positive' if positive else 'non-negative'}")
    return float(value)


#: Longest inline wait the server grants a ``wait_s`` request field or
#: long-poll, whatever the request asks: below the client's default 30 s
#: socket timeout, so a settled answer always beats the socket.
MAX_WAIT_S = 10.0


def seconds(value, name: str) -> float:
    """A positive, finite number of seconds (``deadline_s``, ``wait_s``)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < math.inf):
        raise ApiError(400, f"'{name}' must be a positive number of seconds")
    return float(value)


def queue_fields(payload: dict) -> Tuple[int, Optional[float], Optional[float]]:
    """A queued request's ``priority`` (default 0, lower runs first),
    ``deadline_s`` (positive seconds, or ``None``) and ``wait_s``: how long
    the submit may block for the job to settle (positive seconds, capped at
    :data:`MAX_WAIT_S`; ``None`` answers at once)."""
    deadline, wait = payload.get("deadline_s"), payload.get("wait_s")
    return (_integer(payload.get("priority", 0), "priority"),
            None if deadline is None else seconds(deadline, "deadline_s"),
            None if wait is None else min(seconds(wait, "wait_s"), MAX_WAIT_S))


def _options(value, name: str = "options") -> Optional[SolverOptions]:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ApiError(400, f"'{name}' must be an object")
    unknown = set(value) - _OPTION_FIELDS
    if unknown:
        raise ApiError(400, f"unknown solver options: {sorted(unknown)}; "
                            f"known: {sorted(_OPTION_FIELDS)}")
    try:
        return SolverOptions(**value)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid solver options: {exc}") from None


def _cells(value, name: str) -> Tuple[SweepCell, ...]:
    if not isinstance(value, list):
        raise ApiError(400, "provide 'cells' (a list) or 'strategies' "
                            "(+ 'budgets')")
    cells = []
    for entry in value:
        if isinstance(entry, list) and len(entry) == 2:
            entry = {"strategy": entry[0], "budget": entry[1]}
        if not isinstance(entry, dict):
            raise ApiError(400, "each cell is an object {strategy, budget?, "
                                "options?} or a [strategy, budget] pair")
        cells.append(SweepCell(_text(entry.get("strategy"), "strategy"),
                               _bytes(entry.get("budget"), "budget"),
                               _options(entry.get("options"))))
    return tuple(cells)


_READERS: Dict[str, Callable] = {
    "strategy": _text, "seed": _integer, "options": _options, "cells": _cells,
    "budget": _bytes, "low": _bytes, "high": _bytes,
    "resolution": lambda value, name: _bytes(value, name, positive=True),
}


def _sweep_grid(payload: dict, graph: DFGraph) -> dict:
    """Expand a ``strategies`` x ``budgets`` grid into explicit cells."""
    if payload.get("cells") is None and payload.get("strategies") is not None:
        strategies, budgets = payload["strategies"], payload.get("budgets", [None])
        if not isinstance(strategies, list) or not isinstance(budgets, list):
            raise ApiError(400, "'strategies' and 'budgets' must be lists")
        payload = dict(payload, cells=[[s, b] for s in strategies for b in budgets])
    return payload


def _executable(payload: dict, graph: DFGraph) -> dict:
    from ..execution import unsupported_op_types

    unsupported = unsupported_op_types(graph)
    if unsupported:
        raise ApiError(400, f"graph {graph.name!r} is not executable: "
                            f"unsupported op types {unsupported}")
    return payload


# --------------------------------------------------------------------------- #
# Flight keys: (service, work, graph content hash) -> (normalized work, key)
# --------------------------------------------------------------------------- #
# Identical concurrent submissions share one flight, so a key covers exactly
# what the result depends on.  Resolving the strategy raises ``KeyError`` for
# an unknown one, and bad argument combinations raise ``ValueError``: both
# at submission time, never inside a worker.
def _resolve(service: SolveService, graph: DFGraph, strategy: str,
             options: Optional[SolverOptions], budget: Optional[float], *,
             traced: bool = False):
    """The spec, effective options and cache token of one cell, after
    checking what only the graph and registry can tell: a budget for every
    formulation solver (unless ``traced``: the operation picks the budgets),
    checkpoints inside the graph, and race entrants the race accepts."""
    spec = service.registry.get(strategy)
    options = options if options is not None else service.default_options
    if spec.uses_formulation and budget is None and not traced:
        raise ValueError(f"strategy {spec.key!r} needs a memory budget")
    kwargs = options.kwargs_for(spec.option_map)
    for node in kwargs.get("checkpoints", ()):
        if not 0 <= node < graph.size:
            raise ValueError(f"checkpoint node {node} outside the graph "
                             f"({graph.size} nodes)")
    if "entrants" in kwargs:
        check_entrants(service.registry, kwargs["entrants"], spec.key)
    return spec, options, options.cache_token(spec.option_map)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _float(value) -> Optional[float]:
    return None if value is None else float(value)


def _cell_flight(service, work, graph_hash):
    """Normalize one-cell work; its key is the cell's plan-cache key."""
    spec, options, token = _resolve(service, work.graph, work.strategy,
                                    work.options, work.budget)
    return (replace(work, strategy=spec.key, options=options),
            PlanCacheKey.build(graph_hash, spec.key, work.budget, token))


def _solve_flight(service, work, graph_hash):
    # Exactly the plan-cache key: two solves share a flight iff they would
    # share a cache entry.
    work, key = _cell_flight(service, work, graph_hash)
    return work, f"solve/{key}"


def _execute_flight(service, work, graph_hash):
    # The cell plus the binding seed: an execute and a plain solve of one
    # cell share the plan cache but not a flight.
    work, key = _cell_flight(service, replace(work, seed=int(work.seed)),
                             graph_hash)
    return work, f"execute/{key}/seed={work.seed}"


def _sweep_flight(service, work, graph_hash):
    cells = tuple(c if isinstance(c, SweepCell) else SweepCell(*c)
                  for c in work.cells)
    options = work.options if work.options is not None else service.default_options
    tokens = [(c.strategy, _float(c.budget),
               _resolve(service, work.graph, c.strategy,
                        c.options if c.options is not None else options,
                        c.budget)[2])
              for c in cells]
    if not cells:
        raise ValueError("sweep needs at least one cell")
    return (replace(work, cells=cells, options=options),
            "sweep/" + _digest(graph_hash, *tokens))


def _pareto_flight(service, work, graph_hash):
    spec, options, token = _resolve(service, work.graph, work.strategy,
                                    work.options, None, traced=True)
    if not spec.has_budget_knob:
        raise ValueError(f"strategy {spec.key!r} has no budget knob to trace")
    if work.resolution is not None and float(work.resolution) <= 0:
        raise ValueError("resolution must be positive")
    return (replace(work, strategy=spec.key, options=options),
            "pareto/" + _digest(graph_hash, spec.key, _float(work.low),
                                _float(work.high), _float(work.resolution),
                                token))


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Operation:
    """One serving operation.

    ``work``'s fields after the graph are the request fields, which
    :meth:`parse` reads after the optional ``check(payload, graph)`` has
    validated the graph or rewritten the payload.  ``run(service, work,
    should_cancel)`` executes the work and ``encode(result)`` renders the
    result as JSON under ``result_key`` (``None``: as the whole body).
    ``flight(service, work, graph_hash)`` returns the normalized work and
    its flight key; operations without one run synchronously.  ``ships``
    marks the operations worker processes run: their results are
    :class:`~repro.core.schedule.ScheduledResult` objects (or lists of
    them), which pickle back to the parent without their graph.
    ``latency`` names the ``/v1/metrics`` latency key fed.
    """

    name: str
    work: type
    run: Callable[[SolveService, object, Optional[Callable[[], bool]]], object]
    encode: Callable[[object], object]
    result_key: Optional[str]
    check: Optional[Callable[[dict, DFGraph], dict]] = None
    flight: Optional[Callable[[SolveService, object, str],
                              Tuple[object, str]]] = None
    ships: bool = False
    latency: str = "solve_latency"

    @property
    def queued(self) -> bool:
        return self.flight is not None

    def parse(self, payload: dict, graph: DFGraph):
        """The request fields of ``payload`` (all but the graph) as work;
        an absent field takes the work type's default."""
        if self.check is not None:
            payload = self.check(payload, graph)
        values = {}
        for field in fields(self.work)[1:]:
            value = payload.get(field.name)
            values[field.name] = (
                field.default if value is None and field.default is not MISSING
                else _READERS[field.name](value, field.name))
        return self.work(graph, **values)


def _lint(graph: DFGraph, budget: Optional[float]):
    from ..analysis.lint import lint_graph

    return lint_graph(graph, budget=budget)


# The result encoders look ``result_to_wire`` up on the serialization module
# at call time, so instrumentation that rebinds it there sees every encode.
OPERATIONS: Dict[str, Operation] = {op.name: op for op in (
    Operation(
        "solve", SolveWork,
        run=lambda service, w, cancel: service.solve(
            w.graph, w.strategy, w.budget, w.options, should_cancel=cancel),
        encode=lambda result: serialization.result_to_wire(result),
        result_key="result",
        flight=_solve_flight,
        ships=True),
    Operation(
        "sweep", SweepWork,
        run=lambda service, w, cancel: service.sweep(
            w.graph, w.cells, options=w.options, should_cancel=cancel),
        encode=lambda results: [serialization.result_to_wire(r)
                                for r in results],
        result_key="results",
        check=_sweep_grid,
        flight=_sweep_flight,
        ships=True),
    Operation(
        "execute", ExecuteWork,
        run=lambda service, w, cancel: service.execute(
            w.graph, w.strategy, w.budget, w.options, seed=w.seed,
            should_cancel=cancel),
        encode=lambda report: report.to_dict(),
        result_key="report",
        check=_executable,
        flight=_execute_flight),
    Operation(
        "pareto", ParetoWork,
        run=lambda service, w, cancel: service.pareto(
            w.graph, w.strategy, low=w.low, high=w.high,
            resolution=w.resolution, options=w.options, should_cancel=cancel),
        encode=lambda front: front.to_dict(),
        result_key="front",
        flight=_pareto_flight,
        # Whole-frontier traces are many solves each; their own latency key
        # keeps them out of the per-solve quantiles.
        latency="pareto_latency"),
    Operation(
        "lint", LintWork,
        run=lambda service, w, cancel: _lint(w.graph, w.budget),
        encode=lambda report: report.to_dict(),
        result_key=None),
)}

_BY_WORK = {op.work: op for op in OPERATIONS.values()}


def operation_for(work) -> Operation:
    """The table entry whose work type ``work`` is."""
    return _BY_WORK[type(work)]


def request_fields(work) -> dict:
    """The request fields (everything but the graph) that the operation's
    parser reads back into an equal ``work``."""
    return {f.name: _jsonable(getattr(work, f.name))
            for f in fields(work) if f.name != "graph"}


def _jsonable(value):
    if isinstance(value, SolverOptions):
        return options_to_wire(value)["fields"]
    if isinstance(value, SweepCell):
        return {"strategy": value.strategy, "budget": value.budget,
                "options": _jsonable(value.options)}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
