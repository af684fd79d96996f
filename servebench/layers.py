"""Layer spans recorded from the benchmark's own files.

The traced run wraps public entry points of each ``repro`` layer where their
callers look them up, and records one span per call: name, start, end,
parent span and request id.  Nothing inside ``src/`` changes.  Spans stay in
memory; a daemon writes its spans to a JSON file when it exits, and process
workers ship theirs back inside each task's response, where the daemon grafts
them under the ``backends.ship`` span that waited for the task.

Timestamps are ``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore shared by every process on the host, so client, daemon
and worker spans land on one timeline.

A layer's *self time* is the time its spans cover minus the part of that time
their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Recorder",
    "install_daemon",
    "install_client",
    "self_times",
    "within_window",
    "chrome_events",
]

#: One recorded span: (name, request id, span id, parent id, start, end, pid,
#: thread id, thread name, attributes).  The request id is set on root spans
#: only; a child belongs to its root's request.
Row = Tuple[str, Optional[str], int, Optional[int], float, float, int, int,
            str, Optional[dict]]

_WORKER_SPANS = "servebench_spans"


class _Frame:
    __slots__ = ("span_id", "rid", "attrs")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.rid: Optional[str] = None
        self.attrs: Optional[dict] = None


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: str) -> None:
        """Tag the current thread's root span with a request id."""
        stack = self._stack()
        if stack:
            stack[0].rid = rid

    def wrap(self, name, fn: Callable, *,
             request: Optional[Callable] = None,
             describe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string or a callable of the call's arguments.
        ``request(args)`` may name the request the call serves; it tags the
        thread's root span.  ``describe(recorder, args, kwargs, result)`` may
        return attributes for the span; it runs after the call returned.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1].span_id if stack else None
            frame = _Frame(next(recorder._ids))
            stack.append(frame)
            if request is not None:
                stack[0].rid = request(args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    frame.attrs = describe(recorder, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                thread = threading.current_thread()
                recorder.rows.append((
                    name(args) if callable(name) else name, frame.rid,
                    frame.span_id, parent, start, end, os.getpid(),
                    thread.ident or 0, thread.name, frame.attrs))

        return wrapper

    def graft(self, rows: Iterable[Sequence], parent_id: Optional[int]) -> None:
        """Adopt another process's rows; its roots become children of
        ``parent_id``.  Span ids are renumbered into this recorder's space."""
        rows = list(rows)
        new_ids = {row[2]: next(self._ids) for row in rows}
        for row in rows:
            name, rid, span_id, parent, start, end, pid, tid, tname, attrs = row
            self.rows.append((name, rid, new_ids[span_id],
                              new_ids.get(parent, parent_id), start, end,
                              pid, tid, tname, attrs))


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
def _patch_function(recorder: Recorder, module, attr: str, name: str, *,
                    describe=None) -> None:
    """Wrap a module-level function in every ``repro`` module that bound it
    by name (``from x import f`` copies the reference into the importer)."""
    original = getattr(module, attr)
    wrapped = recorder.wrap(name, original, describe=describe)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "__dict__", {}).get(attr) is original):
            setattr(mod, attr, wrapped)


def _patch_method(recorder: Recorder, cls, attr: str, name, *,
                  request=None, describe=None) -> None:
    setattr(cls, attr, recorder.wrap(name, getattr(cls, attr),
                                     request=request, describe=describe))


def _route_name(args) -> str:
    handler, method = args[0], args[1]
    path = handler.path.partition("?")[0].rstrip("/")
    if method == "POST" and path == "/v1/solve":
        return "http.submit"
    if method == "GET" and path.startswith("/v1/jobs/"):
        return "http.result" if path.endswith("/result") else "http.poll"
    return "http.other"


def _job_in_path(args) -> Optional[str]:
    path = args[0].path.partition("?")[0].rstrip("/")
    return path.split("/")[3] if path.startswith("/v1/jobs/") else None


def _tag_job(recorder, args, kwargs, job):
    recorder.set_request(job.id)
    return None


def _describe_lookup(recorder, args, kwargs, result):
    return {"hit": result is not None}


def _describe_invoke(recorder, args, kwargs, result):
    spec, graph = args[1], args[2]
    return {"strategy": spec.key, "graph": graph.name, "nodes": graph.size}


def _describe_milp(recorder, args, kwargs, result):
    c = kwargs.get("c", args[0] if args else None)
    constraints = kwargs.get("constraints")
    nnz = getattr(getattr(constraints, "A", None), "nnz", 0)
    return {"variables": int(len(c)), "nnz": int(nnz)}


def _describe_build(recorder, args, kwargs, result):
    return {"build": True}


def install_daemon(recorder: Recorder) -> None:
    """Wrap the daemon-side layers (server, service, solvers, core,
    serialization) in this process; also used in process-backend workers."""
    # Import the whole package first, so every module that binds a wrapped
    # name by ``from x import f`` exists when the names are rebound.
    import repro  # noqa: F401
    from repro.analysis import lint
    from repro.core import scheduler, schedule, simulator
    from repro.server import backends, http, jobs
    from repro.service import cache, hashing
    from repro.service import solve as service_solve
    from repro.solvers import compiled, ilp
    from repro.utils import serialization

    # Containers: the roots whose self time is the unattributed remainder.
    _patch_method(recorder, http._Handler, "handle_one_request", "daemon.http")
    _patch_method(recorder, jobs.JobQueue, "_run_flight", "jobs.run",
                  request=lambda args: args[2].members[0].id)
    # server.http
    _patch_method(recorder, http._Handler, "_dispatch", _route_name,
                  request=_job_in_path)
    _patch_function(recorder, http, "_build_graph", "http.build_graph")
    # server.jobs
    _patch_method(recorder, jobs.JobQueue, "submit_solve", "jobs.submit",
                  describe=_tag_job)
    # server.backends
    _patch_method(recorder, backends.ProcessBackend, "_ship", "backends.ship",
                  describe=_graft_worker_spans)
    backends._run_task = _shipping(recorder, backends._run_task)
    # service
    _patch_method(recorder, service_solve.SolveService, "solve", "service.solve")
    _patch_function(recorder, hashing, "graph_content_hash", "service.hash")
    _patch_method(recorder, cache.PlanCache, "get", "service.cache_lookup",
                  describe=_describe_lookup)
    _patch_function(recorder, lint, "lint_graph_cached", "service.lint")
    # solvers
    _patch_method(recorder, service_solve.SolveService, "_invoke",
                  "solvers.solve", describe=_describe_invoke)
    _patch_function(recorder, compiled, "formulation_and_arrays",
                    "solvers.compile")
    _patch_method(recorder, compiled.CompiledFormulation, "__init__",
                  "solvers.compile", describe=_describe_build)
    _patch_function(recorder, ilp, "milp", "solvers.highs",
                    describe=_describe_milp)
    _patch_method(recorder, compiled.CompiledFormulation, "decode_matrices",
                  "solvers.decode")
    # core
    _patch_function(recorder, schedule, "validate_correctness_constraints",
                    "core.validate")
    _patch_function(recorder, simulator, "schedule_peak_memory",
                    "core.simulate")
    _patch_function(recorder, simulator, "simulate_schedule_memory",
                    "core.simulate")
    _patch_function(recorder, scheduler, "generate_execution_plan", "core.plan")
    # utils.serialization
    _patch_function(recorder, serialization, "graph_from_wire",
                    "serialization.graph_decode")
    _patch_function(recorder, serialization, "graph_to_wire",
                    "serialization.graph_encode")
    _patch_function(recorder, serialization, "result_to_wire",
                    "serialization.result_encode")
    _patch_function(recorder, serialization, "result_from_wire",
                    "serialization.result_decode")


def _shipping(recorder: Recorder, run_task: Callable) -> Callable:
    """Worker side of ``backends._run_task``: return the spans the task
    recorded inside its response, for the daemon to graft."""

    @functools.wraps(run_task)
    def wrapper(payload):
        first = len(recorder.rows)
        response = run_task(payload)
        spans = recorder.rows[first:]
        del recorder.rows[first:]
        response[_WORKER_SPANS] = spans
        return response

    return wrapper


def _graft_worker_spans(recorder, args, kwargs, response):
    spans = response.pop(_WORKER_SPANS, None) if isinstance(response, dict) else None
    if spans:
        recorder.graft(spans, recorder._stack()[-1].span_id)
    return None


def install_client(recorder: Recorder) -> None:
    """Wrap the client layer in the benchmark's own process."""
    import http.client

    from repro.server import client
    from repro.utils import serialization

    def describe_submit(recorder_, args, kwargs, handle):
        recorder_.set_request(handle["job_id"])
        return None

    def job_arg(args):
        return args[1]

    _patch_method(recorder, client.ServeClient, "submit_solve", "client.submit",
                  describe=describe_submit)
    _patch_method(recorder, client.ServeClient, "wait", "client.wait",
                  request=job_arg)
    _patch_method(recorder, client.ServeClient, "job", "client.poll",
                  request=job_arg)
    _patch_method(recorder, client.ServeClient, "result", "client.result",
                  request=job_arg)
    _patch_function(recorder, client, "graph_to_wire", "client.encode")
    _patch_function(recorder, serialization, "result_from_wire",
                    "client.decode")

    def describe_send(recorder_, args, kwargs, result):
        data = args[1]
        return {"bytes": len(data) if isinstance(data, (bytes, bytearray)) else 0}

    def describe_response(recorder_, args, kwargs, response):
        return {"bytes": response.length or 0}

    _patch_method(recorder, http.client.HTTPConnection, "send", "client.send",
                  describe=describe_send)
    _patch_method(recorder, http.client.HTTPConnection, "getresponse",
                  "client.roundtrip", describe=describe_response)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def _roots(rows: Sequence[Row]) -> Dict[int, int]:
    """Map every span id to the id of its root span."""
    parent = {row[2]: row[3] for row in rows}
    root: Dict[int, int] = {}
    for span_id in parent:
        path = []
        node = span_id
        while node not in root:
            up = parent[node]
            if up is None or up not in parent:
                root[node] = node
                break
            path.append(node)
            node = up
        for n in path:
            root[n] = root[node]
    return root


def within_window(rows: Sequence[Row], start: float, end: float) -> List[Row]:
    """The spans whose root started inside ``[start, end]``."""
    by_id = {row[2]: row for row in rows}
    roots = _roots(rows)
    return [row for row in rows
            if start <= by_id[roots[row[2]]][4] <= end]


def request_ids(rows: Sequence[Row]) -> Dict[int, Optional[str]]:
    """Span id -> request id, inherited from the root span."""
    by_id = {row[2]: row for row in rows}
    roots = _roots(rows)
    return {row[2]: by_id[roots[row[2]]][1] for row in rows}


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(rows: Sequence[Row]) -> Dict[int, float]:
    """Span id -> its duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in rows:
        if row[3] is not None:
            children[row[3]].append((row[4], row[5]))
    out = {}
    for row in rows:
        start, end = row[4], row[5]
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(row[2], ()) if e > start and s < end]
        out[row[2]] = (end - start) - _covered(clipped)
    return out


def chrome_events(rows: Sequence[Row]) -> List[dict]:
    """Chrome trace events for ``rows``, one track group per process,
    rendered with :func:`repro.obs.trace.chrome_trace`."""
    from repro.obs.trace import Span, chrome_trace

    rids = request_ids(rows)
    by_pid: Dict[int, list] = defaultdict(list)
    for row in rows:
        name, rid, span_id, parent, start, end, pid, tid, tname, attrs = row
        by_pid[pid].append(Span(name, rids[span_id] or "-", span_id, parent,
                                start, end, tid, tname, attrs))
    events: List[dict] = []
    for pid, spans in sorted(by_pid.items()):
        for event in chrome_trace(spans)["traceEvents"]:
            event["pid"] = pid
            events.append(event)
    return events
