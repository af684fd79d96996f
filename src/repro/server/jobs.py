"""Async job queue: priority ordering, bounded workers, single-flighting.

The queueing half of the solve daemon.  A caller *submits* work of a queued
:data:`~repro.server.ops.OPERATIONS` entry and immediately gets back a
:class:`Job` handle; a bounded pool of worker threads drains the queue
through a :class:`~repro.server.backends.WorkerBackend`; callers poll (or
:meth:`Job.wait`) until the ``queued -> running -> done/failed/cancelled``
lifecycle settles, then fetch the result.

**Single-flighting.**  Concurrent submissions with equal flight keys (for a
solve, exactly the plan cache's key) share one *flight group* and one
execution; each member job keeps its own id and lifecycle, and late joiners
attach mid-air.  With the plan cache serving *sequential* repeats, duplicate
traffic costs one MILP solve, not one per request.

**Priority.**  Lower ``priority`` runs first, ties FIFO; a joiner inherits
its flight's position.

**Cancellation.**  Cancelling a job settles that job at once.  The execution
is abandoned only when every member of its flight is cancelled, and then
cooperatively (the service's ``should_cancel`` hook); a solver already
inside HiGHS finishes and populates the plan cache.  Terminal jobs are
pruned oldest-first past ``max_history``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
import uuid
from enum import Enum
from dataclasses import dataclass, field, fields
from functools import partialmethod
from typing import Dict, List, Optional, Tuple, Union

from ..core.dfgraph import DFGraph
from ..obs.logging import get_logger
from ..obs.metrics import Histogram
from ..obs.trace import get_tracer
from ..service import SolveCancelledError, SolveService, graph_content_hash
from .backends import RemoteSolveError, WorkerBackend, WorkerCrashError, make_backend
from .ops import OPERATIONS

__all__ = ["JobState", "Job", "JobQueue", "QueueFullError"]

_log = get_logger("server.jobs")

#: The ``/v1/metrics`` latency keys the queued operations feed.
_LATENCY_KEYS = tuple(dict.fromkeys(
    op.latency for op in OPERATIONS.values() if op.queued))


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job can never leave.
TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED})


class QueueFullError(RuntimeError):
    """Admission control rejected a submission: the queue is at its bounded
    depth.  Carries the shed contract: ``retry_after_s`` is the server's
    estimate of when capacity frees up (the HTTP layer turns it into a 503
    with a ``Retry-After`` header)."""

    def __init__(self, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full: {depth} flights queued (limit {limit}); "
            f"retry in ~{retry_after_s:.0f}s")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass(eq=False)
class Job:
    """Handle for one submitted operation (``kind`` names it); the
    :class:`JobQueue` owns its state transitions.  A done job's ``result``
    is the operation's encoded body (``OPERATIONS[kind].encode`` of what the
    flight computed: a JSON-safe dict or list, sent over HTTP as is), so
    retained jobs pin no graphs or schedule matrices.  Treat it as
    immutable: the flight's other jobs share it."""

    kind: str
    description: str
    priority: int
    flight_key: str = field(repr=False)
    graph_hash: str = field(repr=False)
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    state: JobState = JobState.QUEUED
    deduplicated: bool = False
    result: object = field(default=None, repr=False)
    error: Optional[str] = None
    #: Structured failure payload (worker crash, deadline, remote
    #: exception): ``{"type": ..., "message": ..., ...}``.
    error_info: Optional[Dict[str, object]] = None
    submitted_at: float = field(default_factory=time.time)
    #: Absolute wall-clock deadline; the job fails with a structured
    #: ``deadline-exceeded`` error if still queued or running past it.
    deadline_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Trace id of the flight this job rode (None when tracing is off);
    #: ``GET /v1/trace/{job_id}`` resolves the span tree through it.
    trace_id: Optional[str] = None
    #: Per-phase wall seconds aggregated from the trace when the flight
    #: lands (e.g. ``{"ilp-solve": 0.12, "decode": 0.001}``).
    phases: Optional[Dict[str, float]] = None
    _terminal: threading.Event = field(default_factory=threading.Event,
                                       repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; ``False`` on timeout."""
        return self._terminal.wait(timeout)

    def to_dict(self) -> dict:
        """JSON-safe status view (what ``GET /v1/jobs/{id}`` returns)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("flight_key", "result", "_terminal")}
        out["state"] = self.state.value
        out["wait_s"] = (self.started_at - self.submitted_at
                         if self.started_at is not None else None)
        out["run_s"] = (self.finished_at - self.started_at
                        if None not in (self.finished_at, self.started_at)
                        else None)
        return out


class _FlightGroup:
    """All jobs sharing one solver invocation (the single-flight unit)."""

    def __init__(self, key: str, work) -> None:
        self.key = key
        self.work = work
        self.members: List[Job] = []
        self.running = False
        self.finished = False
        #: Trace carried from the submitting thread into the worker (the
        #: first submitter's request trace, or a fresh one when the submit
        #: happened outside any span).  All members share it.
        self.trace_id: Optional[str] = None
        self.trace_parent: Optional[int] = None
        self.submitted_perf = time.perf_counter()

    def live_members(self) -> List[Job]:
        return [j for j in self.members if j.state not in TERMINAL_STATES]


class JobQueue:
    """Priority job queue draining into a shared :class:`SolveService`.

    Parameters
    ----------
    service:
        The service all workers share (default: a fresh one with its own
        plan cache); sharing is what lets *sequential* repeats hit the cache.
    num_workers:
        Worker pool size: the most flights executing at once.
    max_history:
        Retained terminal jobs.  Active jobs are never pruned.
    backend:
        ``"thread"`` (in-process, the default), ``"process"`` (a spawn-based
        worker-process pool) or a :class:`~repro.server.backends.WorkerBackend`.
        Either way ``num_workers`` queue threads bound the concurrency.
    max_queue_depth:
        Admission control: the most *flights* allowed to wait.  New flights
        beyond it raise :class:`QueueFullError` (HTTP 503 + ``Retry-After``);
        joiners of an existing flight are never shed.  ``None`` disables it.
    default_deadline_s:
        Deadline applied to submissions that do not carry their own.
    """

    def __init__(self, service: Optional[SolveService] = None, *,
                 num_workers: Optional[int] = None,
                 max_history: int = 4096,
                 backend: Union[str, WorkerBackend] = "thread",
                 max_queue_depth: Optional[int] = None,
                 default_deadline_s: Optional[float] = None) -> None:
        self.service = service if service is not None else SolveService()
        self.num_workers = int(num_workers if num_workers is not None
                               else min(4, os.cpu_count() or 1))
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if isinstance(backend, str):
            backend = make_backend(backend, self.service,
                                   num_workers=self.num_workers)
        self.backend: WorkerBackend = backend
        if max_queue_depth is not None and int(max_queue_depth) < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        self.max_queue_depth = (None if max_queue_depth is None
                                else int(max_queue_depth))
        if default_deadline_s is not None and float(default_deadline_s) <= 0:
            raise ValueError("default_deadline_s must be positive (or None)")
        self.default_deadline_s = (None if default_deadline_s is None
                                   else float(default_deadline_s))
        self.max_history = int(max_history)
        #: Flight run time per ``/v1/metrics`` latency key the operations
        #: feed; per queue, so it stays out of the process-wide registry.
        self.latency = Histogram("repro_flight_seconds",
                                 "Run time of successful flights",
                                 ("key",))
        self.started_at = time.time()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, _FlightGroup]] = []
        self._seq = itertools.count()
        self._jobs: "Dict[str, Job]" = {}
        self._flights: Dict[str, _FlightGroup] = {}
        self._workers: List[threading.Thread] = []
        self._shutdown = False
        self._counters = {"submitted": 0, "deduplicated": 0, "done": 0,
                          "failed": 0, "cancelled": 0, "shed": 0,
                          "expired": 0}

    # ------------------------------------------------------------------ #
    # Worker pool lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "JobQueue":
        """Spin up the backend and the worker pool (idempotent)."""
        self.backend.start()
        with self._cond:
            if self._workers:
                return self
            self._shutdown = False
            for i in range(self.num_workers):
                t = threading.Thread(target=self._worker_loop,
                                     name=f"repro-serve-{i}", daemon=True)
                t.start()
                self._workers.append(t)
        return self

    def shutdown(self, *, wait: bool = True, drain: bool = True) -> None:
        """Stop the pool.  ``drain=True`` finishes queued work first;
        ``drain=False`` cancels everything still queued."""
        with self._cond:
            self._shutdown = True
            if not drain:
                for _, _, flight in self._heap:
                    for job in flight.live_members():
                        self._settle_job_locked(job, JobState.CANCELLED,
                                                error="queue shut down")
                    # Retire the flight too: were it left active in _flights,
                    # a submission after a restart would dedup onto it and
                    # wait forever (its heap entry is gone).
                    self._retire_locked(flight)
                self._heap.clear()
            self._cond.notify_all()
        if wait:
            for t in self._workers:
                t.join()
        self._workers = []
        self.backend.shutdown(wait=wait)

    def __enter__(self) -> "JobQueue":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True, drain=False)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, operation: str, work, *, priority: int = 0,
               deadline_s: Optional[float] = None,
               description: Optional[str] = None) -> Job:
        """Enqueue ``work`` of a queued :data:`~repro.server.ops.OPERATIONS`
        entry.  The entry keys its flight here, so an unknown strategy
        raises ``KeyError`` and bad arguments ``ValueError`` at submission,
        not in a worker."""
        op = OPERATIONS[operation]
        graph_hash = graph_content_hash(work.graph)
        work, key = op.flight(self.service, work, graph_hash)
        job = Job(op.name, description or _describe(op.name, work),
                  int(priority), key, graph_hash)
        deadline_s = (deadline_s if deadline_s is not None
                      else self.default_deadline_s)
        if deadline_s is not None:
            if float(deadline_s) <= 0:
                raise ValueError("deadline_s must be positive")
            job.deadline_at = job.submitted_at + float(deadline_s)
        tracer = get_tracer()
        ctx = tracer.current_context() if tracer.enabled else None
        with self._cond:
            if self._shutdown:
                raise RuntimeError("job queue is shut down")
            self._counters["submitted"] += 1
            flight = self._flights.get(key)
            if ((flight is None or flight.finished)
                    and self.max_queue_depth is not None
                    and len(self._heap) >= self.max_queue_depth):
                # Admission control: only *new* flights are shed (a joiner
                # rides an already-admitted solver invocation for free).
                self._counters["shed"] += 1
                raise QueueFullError(len(self._heap), self.max_queue_depth,
                                     self._retry_after_locked())
            if flight is not None and not flight.finished:
                # Single-flight: ride the existing solver invocation.  The
                # follower inherits the flight's trace -- one execution, one
                # trace, shared by every member job.
                job.deduplicated = True
                self._counters["deduplicated"] += 1
                flight.members.append(job)
                if flight.running:
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
            else:
                flight = _FlightGroup(key, work)
                if tracer.enabled:
                    # Propagate the submitter's request trace into the worker;
                    # a programmatic submit outside any span opens a new trace
                    # so the job is traceable either way.
                    if ctx is not None:
                        flight.trace_id, flight.trace_parent = ctx
                    else:
                        flight.trace_id = tracer.new_trace_id()
                flight.members.append(job)
                self._flights[key] = flight
                heapq.heappush(self._heap, (job.priority, next(self._seq), flight))
                self._cond.notify()
            job.trace_id = flight.trace_id
            self._jobs[job.id] = job
            self._prune_locked()
        return job

    def _submit_fields(self, operation: str, graph: DFGraph, *fields,
                       priority: int = 0, deadline_s: Optional[float] = None,
                       description: Optional[str] = None, **named) -> Job:
        work = OPERATIONS[operation].work(graph, *fields, **named)
        return self.submit(operation, work, priority=priority,
                           deadline_s=deadline_s, description=description)

    # Programmatic entry points, one per queued operation:
    # ``submit_<name>(graph, *fields, priority=0, deadline_s=None,
    # description=None, **fields)`` builds the operation's work type in
    # :mod:`repro.server.ops` from its fields, e.g.
    # ``submit_solve(graph, "checkmate_ilp", budget, options)``.
    submit_solve = partialmethod(_submit_fields, "solve")
    submit_sweep = partialmethod(_submit_fields, "sweep")
    submit_execute = partialmethod(_submit_fields, "execute")
    submit_pareto = partialmethod(_submit_fields, "pareto")

    def _retry_after_locked(self) -> float:
        """Estimate seconds until a queue slot frees: depth drains at about
        one flight per worker per median solve latency."""
        p50 = self.latency.quantile(0.5, key="solve_latency") or 1.0
        estimate = p50 * (len(self._heap) + 1) / max(self.num_workers, 1)
        return min(max(estimate, 1.0), 30.0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def jobs(self, state: Optional[JobState] = None) -> List[Job]:
        """All retained jobs (optionally filtered), oldest first."""
        with self._lock:
            out = [j for j in self._jobs.values()
                   if state is None or j.state == state]
        return sorted(out, key=lambda j: j.submitted_at)

    def cancel(self, job_id: str) -> Job:
        """Cancel one job; a no-op (returning the job) if already terminal.

        The shared solver invocation is abandoned only if *every* member of
        the flight is cancelled -- see the module docstring.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.state not in TERMINAL_STATES:
                self._settle_job_locked(job, JobState.CANCELLED,
                                        error="cancelled by client")
            return job

    def metrics(self) -> dict:
        """The ``/v1/metrics`` payload: queue, latency and service/cache stats."""
        with self._lock:
            by_state: Dict[str, int] = {s.value: 0 for s in JobState}
            for j in self._jobs.values():
                by_state[j.state.value] += 1
            counters = dict(self._counters)
            workers = len(self._workers)
        return {
            "uptime_s": time.time() - self.started_at,
            "workers": workers,
            "queue_depth": by_state[JobState.QUEUED.value],
            "running": by_state[JobState.RUNNING.value],
            "max_queue_depth": self.max_queue_depth,
            "jobs_by_state": by_state,
            "jobs": counters,
            **{key: self._latency_summary(key) for key in _LATENCY_KEYS},
            "service": self.service.statistics(),
            "backend": self.backend.stats(),
        }

    def _latency_summary(self, key: str) -> dict:
        """Count, total and p50/p95/p99 estimates of one latency key."""
        _, total, count = self.latency.snapshot(key=key)
        quantile = self.latency.quantile
        return {"count": int(count), "total_s": total,
                "p50_s": quantile(0.50, key=key),
                "p95_s": quantile(0.95, key=key),
                "p99_s": quantile(0.99, key=key)}

    # ------------------------------------------------------------------ #
    # Worker internals
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._shutdown:
                    self._cond.wait()
                if not self._heap:
                    return  # shutdown and fully drained
                _, _, flight = heapq.heappop(self._heap)
                # Deadline check at pop: work that waited past its deadline
                # fails *before* costing solver time (the load-shedding
                # contract -- a late answer nobody waits for is wasted work).
                self._expire_overdue_locked(flight)
                live = flight.live_members()
                if not live:
                    # Everyone cancelled/expired while queued: never run.
                    self._retire_locked(flight)
                    del flight  # see the end of the loop
                    continue
                flight.running = True
                now = time.time()
                for job in live:
                    job.state = JobState.RUNNING
                    job.started_at = now
            tracer = get_tracer()
            if flight.trace_id is not None:
                tracer.record_span("queue-wait", flight.trace_id,
                                   flight.submitted_perf, time.perf_counter(),
                                   parent_id=flight.trace_parent)
            t_start = time.monotonic()
            extra = {"flight_key": flight.key, "trace_id": flight.trace_id,
                     "jobs": [j.id for j in flight.members]}
            try:
                result = self._run_flight(tracer, flight)
            except SolveCancelledError as exc:
                _log.info("job flight cancelled", extra=extra)
                self._finish_flight(flight, JobState.CANCELLED, error=str(exc))
            except (WorkerCrashError, RemoteSolveError) as exc:
                _log.error("job flight failed in worker: %s", exc, extra=extra)
                self._finish_flight(flight, JobState.FAILED, error=str(exc),
                                    error_info=exc.info)
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                _log.error("job flight failed: %s: %s", type(exc).__name__,
                           exc, exc_info=True, extra=extra)
                self._finish_flight(flight, JobState.FAILED,
                                    error=f"{type(exc).__name__}: {exc}")
            else:
                self.latency.observe(
                    time.monotonic() - t_start,
                    key=OPERATIONS[flight.members[0].kind].latency)
                self._finish_flight(flight, JobState.DONE, result=result)
            # Drop the settled flight before blocking on the next pop: its
            # work holds the request's graph.
            del flight

    def _run_flight(self, tracer, flight: _FlightGroup):
        """Execute one flight inside its propagated trace context."""
        if flight.trace_id is None:
            return self._execute(flight)
        with tracer.context(flight.trace_id, flight.trace_parent):
            with tracer.span("job-run", kind=flight.members[0].kind,
                             flight_key=flight.key,
                             backend=self.backend.name):
                return self._execute(flight)

    def _execute(self, flight: _FlightGroup):
        """Run the flight's work on the backend; returns the encoded body."""
        def abandoned() -> bool:
            # Polled by the backend while the flight runs.  Expire members
            # whose deadline passed mid-run before taking the verdict: a
            # flight every live member of which is past deadline (or
            # cancelled) has nobody left to deliver to.
            with self._cond:
                self._expire_overdue_locked(flight)
                return not any(j.state == JobState.RUNNING
                               for j in flight.members)

        op = OPERATIONS[flight.members[0].kind]
        return op.encode(self.backend.run(flight.work, abandoned))

    def _expire_overdue_locked(self, flight: _FlightGroup) -> None:
        """Fail the flight's live members whose deadline has passed."""
        now = time.time()
        for job in flight.live_members():
            if job.deadline_at is not None and now >= job.deadline_at:
                waited = now - job.submitted_at
                job.error_info = {"type": "deadline-exceeded",
                                  "deadline_at": job.deadline_at,
                                  "waited_s": round(waited, 6)}
                self._counters["expired"] += 1
                self._settle_job_locked(job, JobState.FAILED,
                                        error=f"deadline exceeded after "
                                              f"{waited:.3f}s")

    def _retire_locked(self, flight: _FlightGroup) -> None:
        flight.finished = True
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]

    def _finish_flight(self, flight: _FlightGroup, state: JobState, *,
                       result=None, error: Optional[str] = None,
                       error_info: Optional[dict] = None) -> None:
        phases: Optional[Dict[str, float]] = None
        if flight.trace_id is not None:
            totals = get_tracer().store.phase_totals(flight.trace_id)
            phases = {k: round(v, 6) for k, v in totals.items()} or None
        with self._cond:
            self._retire_locked(flight)
            live = flight.live_members()
            if state is JobState.CANCELLED and live and not self._shutdown:
                # The abandonment verdict fired when *every* member was
                # cancelled, so anyone still live joined after it -- an
                # innocent new submission that must not inherit the
                # cancellation.  Re-fly them instead of settling.
                requeued = _FlightGroup(flight.key, flight.work)
                requeued.trace_id = flight.trace_id
                requeued.trace_parent = flight.trace_parent
                requeued.members.extend(live)
                for job in live:
                    job.state = JobState.QUEUED
                    job.started_at = None
                self._flights[flight.key] = requeued
                heapq.heappush(self._heap, (min(j.priority for j in live),
                                            next(self._seq), requeued))
                self._cond.notify()
                self._prune_locked()
                return
            for job in live:
                job.result = result
                job.phases = phases
                if error_info is not None:
                    job.error_info = dict(error_info)
                self._settle_job_locked(job, state, error=error)
            self._prune_locked()

    def _settle_job_locked(self, job: Job, state: JobState,
                           error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        job.finished_at = time.time()
        self._counters[state.value] += 1
        job._terminal.set()

    def _prune_locked(self) -> None:
        """Drop the oldest terminal jobs past ``max_history``.  ``_jobs``
        keeps submission order, so the scan stops at the excess."""
        excess = len(self._jobs) - self.max_history
        if excess > 0:
            terminal = (job_id for job_id, job in self._jobs.items()
                        if job.state in TERMINAL_STATES)
            for job_id in list(itertools.islice(terminal, excess)):
                del self._jobs[job_id]


def _describe(operation: str, work) -> str:
    """``"solve vgg16 strategy=checkmate_ilp budget=1e+09"``: the operation,
    the graph and the work's set scalar fields."""
    parts = [operation, work.graph.name]
    for name, value in vars(work).items():
        if name == "cells":
            parts.append(f"cells={len(value)}")
        elif isinstance(value, (str, int, float)):
            parts.append(f"{name}={value:g}" if isinstance(value, float)
                         else f"{name}={value}")
    return " ".join(parts)
