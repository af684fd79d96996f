"""Span tracing: where the time goes *inside* a solve.

A :class:`Tracer` records nestable, thread-aware spans -- named intervals on
the monotonic clock with attributes, a per-request trace id and a parent
link -- into a bounded in-memory :class:`TraceStore`.  The daemon turns the
store into ``/v1/trace/{job_id}`` span trees and Chrome trace-event JSON
(loadable in ``chrome://tracing`` / Perfetto); the ``repro trace`` CLI prints
the same spans as a text waterfall.

Design constraints, in order:

**Off means free.**  Tracing is disabled by default and every instrumentation
point is a single ``tracer.span(...)`` call that returns a shared no-op
context manager when disabled -- one attribute check, no allocation.  A perf
gate (``benchmarks/test_perf_gates.py``) holds the *enabled* overhead on a
plan-cache-hit sweep at 5% or less, so the enabled path is lean too:
span ids are counter ints (no uuid), timestamps are two ``perf_counter``
calls, and recording is one list append under a short lock.

**Threads are first class.**  The current trace/span is thread-local;
:meth:`Tracer.current_context` / :meth:`Tracer.context` carry it across an
explicit handoff (the job queue propagates the submitting request's trace id
into the worker thread), and every span records the thread it ran on, so a
Chrome trace shows HTTP handler and solver worker on separate tracks.

**Bounded memory.**  Finished spans live in the :class:`TraceStore`, an LRU
of the most recent ``max_traces`` trace ids with a per-trace span cap --
a long-lived daemon never accumulates unbounded trace data.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceStore",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "chrome_trace",
    "span_tree",
    "spans_from_tree",
    "format_waterfall",
]


class Span:
    """One finished, named interval of a trace (immutable once recorded)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "thread_id", "thread_name", "attributes")

    def __init__(self, name: str, trace_id: str, span_id: int,
                 parent_id: Optional[int], start_s: float, end_s: float,
                 thread_id: int, thread_name: str,
                 attributes: Optional[dict]) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = end_s
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.attributes = attributes

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attributes": self.attributes or {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
                f"trace={self.trace_id})")


class TraceStore:
    """Bounded LRU of finished spans keyed by trace id (thread-safe).

    Spans arrive as plain tuples (``Span.__init__`` argument order) and are
    only materialized into :class:`Span` objects when read: recording is the
    hot path (one tuple and one list append per span), reading happens once
    per trace render.
    """

    def __init__(self, max_traces: int = 256,
                 max_spans_per_trace: int = 4096) -> None:
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[tuple]]" = OrderedDict()
        self._dropped_spans = 0

    def add(self, span_row: tuple) -> None:
        """Record one finished span row ``(name, trace_id, span_id, ...)``."""
        self.add_many((span_row,))

    def add_many(self, span_rows) -> None:
        """Record a batch of rows under one lock (the tracer's flush path)."""
        with self._lock:
            for span_row in span_rows:
                rows = self._traces.get(span_row[1])
                if rows is None:
                    rows = []
                    self._traces[span_row[1]] = rows
                    while len(self._traces) > self.max_traces:
                        self._traces.popitem(last=False)
                if len(rows) >= self.max_spans_per_trace:
                    self._dropped_spans += 1
                    continue
                rows.append(span_row)

    def spans(self, trace_id: str) -> List[Span]:
        """All finished spans of one trace, in start order (copy)."""
        with self._lock:
            rows = list(self._traces.get(trace_id, ()))
        return sorted((Span(*row) for row in rows), key=lambda s: s.start_s)

    def pop_rows(self, trace_id: str) -> List[tuple]:
        """Remove and return one trace's raw span rows.

        The worker-process export path: a solver worker records its spans
        locally, pops the rows, and ships them to the parent process (which
        grafts them into the submitting request's trace via
        :meth:`Tracer.graft_rows`).  Raw tuples, not :class:`Span` objects --
        they are about to cross a pickle boundary.
        """
        with self._lock:
            return self._traces.pop(trace_id, [])

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def stats(self) -> dict:
        with self._lock:
            return {
                "traces": len(self._traces),
                "max_traces": self.max_traces,
                "spans": sum(len(v) for v in self._traces.values()),
                "dropped_spans": self._dropped_spans,
            }

    def phase_totals(self, trace_id: str) -> Dict[str, float]:
        """Total seconds per span name for one trace (the job "phases" view)."""
        totals: Dict[str, float] = {}
        for span in self.spans(trace_id):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_attribute(self, key: str, value) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager for one live span (allocated only when recording)."""

    __slots__ = ("_tracer", "name", "attributes", "trace_id", "span_id",
                 "parent_id", "start_s", "_is_root")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Optional[dict]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes

    def set_attribute(self, key: str, value) -> None:
        if self.attributes is None:
            self.attributes = {}
        self.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        tls = tracer._tls
        trace_id = getattr(tls, "trace_id", None)
        if trace_id is None:
            # Root span: open a new trace.
            trace_id = tracer.new_trace_id()
            tls.trace_id = trace_id
            tls.parent_id = None
            self._is_root = True
        else:
            self._is_root = False
        self.trace_id = trace_id
        self.span_id = next(tracer._ids)
        self.parent_id = tls.parent_id
        tls.parent_id = self.span_id
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tls = tracer._tls
        end_s = time.perf_counter()
        tls.parent_id = self.parent_id
        thread_info = getattr(tls, "thread_info", None)
        if thread_info is None:
            thread = threading.current_thread()
            thread_info = tls.thread_info = (thread.ident or 0, thread.name)
        # Finished spans buffer on the owning thread and flush in one batch
        # when the thread's root span (or an attached context) closes: one
        # store lock round-trip and one metrics-hook walk per trace, not per
        # span, keeps the per-span cost down on cache-hit-speed solves.
        buffer = getattr(tls, "buffer", None)
        if buffer is None:
            buffer = tls.buffer = []
        buffer.append((self.name, self.trace_id, self.span_id, self.parent_id,
                       self.start_s, end_s, thread_info[0], thread_info[1],
                       self.attributes))
        if self._is_root:
            tls.trace_id = None
            tracer._flush(buffer)


class _Context:
    """Attach an existing trace id to the current thread (worker handoff)."""

    __slots__ = ("_tracer", "_trace_id", "_parent_id", "_saved")

    def __init__(self, tracer: "Tracer", trace_id: str,
                 parent_id: Optional[int]) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._parent_id = parent_id

    def __enter__(self) -> "_Context":
        tls = self._tracer._tls
        self._saved = (getattr(tls, "trace_id", None),
                       getattr(tls, "parent_id", None))
        tls.trace_id = self._trace_id
        tls.parent_id = self._parent_id
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tls = tracer._tls
        buffer = getattr(tls, "buffer", None)
        if buffer:
            # The attached trace's root lives on another thread and cannot
            # flush this thread's buffer, so the handoff scope does.
            tracer._flush(buffer)
        tls.trace_id, tls.parent_id = self._saved


class Tracer:
    """Thread-aware span tracer with an on/off switch.

    ``enabled`` gates everything: while ``False`` (the default),
    :meth:`span` returns one shared no-op context manager -- the cost of an
    instrumentation point is a method call and an attribute check.  When
    enabled, each *root* span starts a new trace and every trace is
    recorded; nested spans attach to the thread's current trace.
    """

    def __init__(self, store: Optional[TraceStore] = None) -> None:
        self.store = store if store is not None else TraceStore()
        self._enabled = False
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._trace_seq = itertools.count(1)
        #: Optional ``callable(pairs)`` invoked with batches of
        #: ``(name, duration_s)`` tuples as finished spans flush (a whole
        #: trace arrives in one call).  The metrics bridge feeds per-phase
        #: latency histograms from here; batching keeps the per-span cost of
        #: the hook to one small tuple.
        self.on_span_end = None

    # ------------------------------------------------------------------ #
    # Switches
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> "Tracer":
        self._enabled = False
        return self

    def _flush(self, buffer: List[tuple]) -> None:
        """Drain one thread's finished-span buffer into the store + hook."""
        self.store.add_many(buffer)
        hook = self.on_span_end
        if hook is not None:
            hook([(row[0], row[5] - row[4]) for row in buffer])
        del buffer[:]

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attributes):
        """Context manager timing one named span (no-op while disabled)."""
        if not self._enabled:
            return _NOOP_SPAN
        return _ActiveSpan(self, name, attributes or None)

    def record_span(self, name: str, trace_id: str, start_s: float,
                    end_s: float, parent_id: Optional[int] = None,
                    **attributes) -> None:
        """Record an already-measured interval (e.g. queue wait) directly.

        ``start_s``/``end_s`` must come from ``time.perf_counter()`` so the
        span shares the clock of every context-manager span.
        """
        if not self._enabled:
            return
        tls = self._tls
        thread_info = getattr(tls, "thread_info", None)
        if thread_info is None:
            thread = threading.current_thread()
            thread_info = tls.thread_info = (thread.ident or 0, thread.name)
        start_s, end_s = float(start_s), float(end_s)
        row = (name, trace_id, next(self._ids), parent_id, start_s, end_s,
               thread_info[0], thread_info[1], attributes or None)
        if getattr(tls, "trace_id", None) == trace_id:
            # Recording into this thread's own active trace: buffer alongside
            # the live spans; the root/context exit flushes the batch.
            buffer = getattr(tls, "buffer", None)
            if buffer is None:
                buffer = tls.buffer = []
            buffer.append(row)
            return
        self.store.add(row)
        hook = self.on_span_end
        if hook is not None:
            hook(((name, end_s - start_s),))

    def record_child_span(self, name: str, start_s: float, end_s: float,
                          **attributes) -> bool:
        """Buffer a pre-measured span under the thread's current span.

        The cheapest way to record an interval from inside an active trace
        (no context tuple, no trace-id comparison): one tuple and one list
        append.  Returns ``False`` -- recording nothing -- when the thread
        has no active trace, so callers can fall back to opening one.
        """
        if not self._enabled:
            return True
        tls = self._tls
        trace_id = getattr(tls, "trace_id", None)
        if trace_id is None:
            return False
        thread_info = getattr(tls, "thread_info", None)
        if thread_info is None:
            thread = threading.current_thread()
            thread_info = tls.thread_info = (thread.ident or 0, thread.name)
        buffer = getattr(tls, "buffer", None)
        if buffer is None:
            buffer = tls.buffer = []
        buffer.append((name, trace_id, next(self._ids), tls.parent_id,
                       start_s, end_s, thread_info[0], thread_info[1],
                       attributes or None))
        return True

    def graft_rows(self, rows: List[tuple], trace_id: str,
                   parent_id: Optional[int] = None,
                   offset_s: float = 0.0) -> int:
        """Attach span rows recorded in *another process* to a local trace.

        Rows come from the remote tracer's :meth:`TraceStore.pop_rows`.
        Span ids are remapped onto this tracer's id counter (remote counters
        collide with local ones), parent links are rewritten through the
        same mapping -- remote roots (``parent_id is None``) and orphans
        attach under ``parent_id`` -- and timestamps are shifted by
        ``offset_s``, the caller's estimate of the clock skew between the
        remote ``perf_counter()`` and the local one (``perf_counter`` is
        per-process; see the process backend for the wall-clock-anchor
        rebasing).  Returns the number of spans grafted.
        """
        if not self._enabled or not rows:
            return 0
        mapping: Dict[int, int] = {}
        for row in rows:
            mapping[row[2]] = next(self._ids)
        grafted = []
        for (name, _tid, span_id, old_parent, start_s, end_s,
             thread_id, thread_name, attrs) in rows:
            new_parent = (mapping.get(old_parent, parent_id)
                          if old_parent is not None else parent_id)
            grafted.append((name, trace_id, mapping[span_id], new_parent,
                            start_s + offset_s, end_s + offset_s,
                            thread_id, thread_name, attrs))
        self.store.add_many(grafted)
        hook = self.on_span_end
        if hook is not None:
            hook([(row[0], row[5] - row[4]) for row in grafted])
        return len(grafted)

    # ------------------------------------------------------------------ #
    # Trace identity and cross-thread propagation
    # ------------------------------------------------------------------ #
    def new_trace_id(self) -> str:
        return f"{os.getpid():x}-{next(self._trace_seq):08x}"

    def current_trace_id(self) -> Optional[str]:
        """The trace id active on this thread (``None`` outside any span)."""
        return getattr(self._tls, "trace_id", None)

    def current_context(self) -> Optional[Tuple[str, Optional[int]]]:
        """``(trace_id, parent_span_id)`` to hand to another thread."""
        trace_id = self.current_trace_id()
        if trace_id is None:
            return None
        return trace_id, getattr(self._tls, "parent_id", None)

    def context(self, trace_id: str, parent_id: Optional[int] = None):
        """Attach ``trace_id`` to the current thread for a ``with`` block."""
        return _Context(self, trace_id, parent_id)


_tracer = Tracer()
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumentation point consults."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests / isolation); returns the old one."""
    global _tracer
    with _tracer_lock:
        previous, _tracer = _tracer, tracer
        return previous


# --------------------------------------------------------------------------- #
# Export: span trees, Chrome trace events, text waterfalls
# --------------------------------------------------------------------------- #
def span_tree(spans: List[Span]) -> List[dict]:
    """Nest spans by parent link: a list of root dicts with ``children``."""
    nodes: Dict[int, dict] = {}
    for span in sorted(spans, key=lambda s: s.start_s):
        node = span.to_dict()
        node["children"] = []
        nodes[span.span_id] = node
    roots: List[dict] = []
    for span_id, node in nodes.items():
        parent_id = node["parent_id"]
        # A parent outside this span list (e.g. pruned by the store bound)
        # degrades gracefully: the orphan becomes a root.
        parent = nodes.get(parent_id) if parent_id is not None else None
        (parent["children"] if parent is not None else roots).append(node)
    return roots


def spans_from_tree(tree: List[dict], trace_id: str = "remote") -> List[Span]:
    """Rebuild flat :class:`Span` objects from a :func:`span_tree` payload.

    The inverse of the wire direction: ``repro trace <job-id> --server`` gets
    a nested tree from ``/v1/trace/{job_id}`` and flattens it back to spans so
    the same waterfall / Chrome-trace renderers work on remote traces.
    """
    spans: List[Span] = []

    def walk(node: dict) -> None:
        spans.append(Span(
            node["name"], trace_id, node["span_id"], node.get("parent_id"),
            node["start_s"], node["start_s"] + node["duration_s"],
            node.get("thread_id", 0), str(node.get("thread_name", "?")),
            node.get("attributes") or None))
        for child in node.get("children", ()):
            walk(child)

    for root in tree:
        walk(root)
    return sorted(spans, key=lambda s: s.start_s)


def chrome_trace(spans: List[Span]) -> dict:
    """Chrome trace-event JSON (the ``chrome://tracing`` / Perfetto format).

    Every span becomes one complete ("ph": "X") event; thread names are
    attached as metadata events so the viewer labels each track.  Timestamps
    are microseconds on the shared monotonic clock.
    """
    pid = os.getpid()
    events = []
    threads = {}
    for span in sorted(spans, key=lambda s: s.start_s):
        threads.setdefault(span.thread_id, span.thread_name)
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": pid,
            "tid": span.thread_id,
            "args": dict(span.attributes or {},
                         trace_id=span.trace_id, span_id=span.span_id),
        })
    meta = [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}} for tid, name in sorted(threads.items())]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def format_waterfall(spans: List[Span], *, width: int = 40) -> str:
    """Render one trace as an indented text waterfall with duration bars."""
    if not spans:
        return "(no spans recorded)"
    t0 = min(s.start_s for s in spans)
    t1 = max(s.end_s for s in spans)
    total = max(t1 - t0, 1e-12)
    lines = [f"trace {spans[0].trace_id}: {len(spans)} spans, "
             f"{total * 1e3:.2f} ms total"]

    def emit(node: dict, depth: int) -> None:
        start = node["start_s"] - t0
        dur = node["duration_s"]
        left = int(width * start / total)
        bar = max(1, int(round(width * dur / total)))
        gauge = " " * left + "#" * min(bar, width - left)
        label = "  " * depth + node["name"]
        attrs = node["attributes"]
        suffix = (" " + " ".join(f"{k}={v}" for k, v in attrs.items())
                  if attrs else "")
        lines.append(f"  {label:<28} {dur * 1e3:9.3f} ms |{gauge:<{width}}|"
                     f"{suffix}")
        for child in node["children"]:
            emit(child, depth + 1)

    for root in span_tree(spans):
        emit(root, 0)
    return "\n".join(lines)
