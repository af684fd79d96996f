"""Pluggable worker backends for the solve daemon's job queue.

The :class:`~repro.server.jobs.JobQueue` owns queueing policy -- priority
order, single-flighting, admission control, deadlines -- and delegates the
execution of one flight to a :class:`WorkerBackend`, which runs the work
through its :data:`~repro.server.ops.OPERATIONS` entry:

* :class:`ThreadBackend` runs it on the queue's worker thread through the
  shared in-process :class:`SolveService`: the cheapest dispatch, but every
  solve contends on one GIL for its Python-side work.
* :class:`ProcessBackend` ships work whose operation ``ships`` (solve,
  sweep) to a pool of long-lived worker *processes* -- the pickled
  :class:`~repro.core.dfgraph.DFGraph` itself, content-hash memo included,
  plus the operation's request fields -- so solves scale across cores.  The
  graph crosses the process boundary without a wire-format encode or decode,
  and the worker's plan-cache and lint lookups reuse the digest the parent
  computed instead of re-hashing.  Results cross back by pickle too: the
  worker validates a schedule once (``build_scheduled_result``, as on the
  thread backend), encodes it once (the wire dict is memoized on the result
  and travels with it), and ships the result without its graph; the parent
  reattaches its own graph and trusts the result -- no decode, no second
  validation or simulation.  Wire formats stay at the HTTP and disk-cache
  boundaries, where the bytes come from outside.  Each worker builds its
  own :class:`SolveService`; a shared on-disk plan-cache directory makes
  any worker's solve a disk hit for the others and the parent.  Duplicates
  collapse into one flight before the backend sees them.

Crash containment: a worker dying mid-task (``BrokenProcessPool``) becomes a
structured :class:`WorkerCrashError` and a pool rebuild, so one crash costs
one flight.  ``_run_task`` never raises: worker exceptions, and results that
do not pickle, come back as plain ``{"ok": False, "error": {...}}`` dicts
that always unpickle.

Tracing: workers ship their raw span rows back with the result, and the
parent grafts them -- ids remapped, clock rebased via a shared wall-clock
anchor -- under the flight's ``job-run`` span, so ``GET /v1/trace/{job_id}``
shows one tree wherever the solve ran.
"""

from __future__ import annotations

import contextlib
import copy
import os
import pickle
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Dict, List, Optional

from ..obs.logging import get_logger
from ..obs.trace import get_tracer
from ..service import SolveCancelledError, SolveService
from ..utils.serialization import options_to_wire
from .ops import OPERATIONS, SolveWork, operation_for, request_fields

__all__ = [
    "WorkerBackend",
    "WorkerCrashError",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
]

_log = get_logger("server.backends")


class WorkerCrashError(RuntimeError):
    """A worker process died mid-flight; ``info`` is the structured payload
    the queue attaches to the failed jobs."""

    def __init__(self, message: str, info: Optional[dict] = None) -> None:
        super().__init__(message)
        self.info = dict(info or {}, type="worker-crash", message=message)


class WorkerBackend:
    """Protocol for flight execution engines (duck-typed).

    ``run`` executes one flight's work on the calling queue thread and
    returns the result or raises (:class:`SolveCancelledError` when
    abandoned).  ``should_abandon()`` turns true once no live job wants the
    result (all cancelled or past their deadline); backends poll it.
    """

    name = "abstract"

    def start(self) -> "WorkerBackend":
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        return None

    def run(self, work, should_abandon: Callable[[], bool]):
        raise NotImplementedError

    def stats(self) -> dict:
        return {"name": self.name}


class ThreadBackend(WorkerBackend):
    """Run flights in-process on the queue's own worker threads."""

    name = "thread"

    def __init__(self, service: SolveService) -> None:
        self.service = service

    def run(self, work, should_abandon: Callable[[], bool]):
        return operation_for(work).run(self.service, work, should_abandon)


# --------------------------------------------------------------------------- #
# Worker-process side (module-level so spawn can pickle them by reference)
# --------------------------------------------------------------------------- #
_WORKER_SERVICE: Optional[SolveService] = None


def _worker_init(cache_dir: Optional[str], cache_entries: int) -> None:
    """Build this worker process's own :class:`SolveService`; ``cache_dir``
    is the disk tier every worker and the parent share."""
    global _WORKER_SERVICE
    from ..service import PlanCache

    cache = (PlanCache(max_entries=cache_entries, cache_dir=cache_dir)
             if (cache_entries > 0 or cache_dir) else None)
    _WORKER_SERVICE = SolveService(cache=cache)


def _worker_ping() -> int:
    """Warmup probe: forces the worker up and its imports resolved."""
    return os.getpid()


def _run_task(payload: dict) -> dict:
    """Execute one shipped task inside the worker process.

    The result is encoded here (memoizing its wire dict, the one encode
    on this path) and pickled without its graph under ``"result"``.

    The contract is "never raise": every failure -- including exception
    types and results that would not survive pickling back to the parent --
    is folded into a plain-dict ``{"ok": False, "error": {...}}`` response.
    Only an abrupt process death can break the channel, and the parent
    handles that separately (``BrokenProcessPool`` ->
    :class:`WorkerCrashError`).
    """
    try:
        service = _WORKER_SERVICE
        if service is None:  # initializer not run (direct use in tests)
            _worker_init(None, 0)
            service = _WORKER_SERVICE
        op = OPERATIONS[payload["op"]]
        work = op.parse(payload["request"], payload["graph"])
        options = getattr(work, "options", None)
        tracer = get_tracer()
        trace_id = None
        if payload.get("trace"):
            if not tracer.enabled:
                tracer.enable()
            trace_id = tracer.new_trace_id()
        wall_anchor, perf_anchor = time.time(), time.perf_counter()
        with (tracer.context(trace_id) if trace_id is not None
              else contextlib.nullcontext()):
            result = op.run(service, work, None)
            op.encode(result)
        return {
            "ok": True,
            "pid": os.getpid(),
            "result": pickle.dumps(_detached(result),
                                   protocol=pickle.HIGHEST_PROTOCOL),
            # Echo of the decoded options: lets callers assert the wire
            # round-trip field-for-field against what they sent.
            "options_echo": (options_to_wire(options)
                            if options is not None else None),
            "stats": _worker_stats_snapshot(service),
            "spans": (tracer.store.pop_rows(trace_id)
                      if trace_id is not None else []),
            "wall_anchor": wall_anchor,
            "perf_anchor": perf_anchor,
        }
    except BaseException as exc:  # noqa: BLE001 - process isolation boundary
        return {
            "ok": False,
            "pid": os.getpid(),
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=20),
            },
        }


def _detached(results):
    """Copies of a shipped operation's results without their graph (the
    parent has it) or a lowered plan (derived; the parent lowers on demand).
    The memoized wire dict stays."""
    if isinstance(results, list):
        return [_detached(r) for r in results]
    shipped = copy.copy(results)
    shipped.graph, shipped._plan = None, None
    return shipped


def _attached(results, graph):
    """Inverse of :func:`_detached`: the parent's own graph, reattached."""
    if isinstance(results, list):
        return [_attached(r, graph) for r in results]
    results.graph = graph
    return results


def _worker_stats_snapshot(service: SolveService) -> dict:
    """Cumulative counters for this worker process (JSON-safe): flat counts
    plus ``certificates`` by kind."""
    stats = service.statistics()
    return {
        "solver_calls": stats["solver_calls"],
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "warm_seeds": stats["warm_seeds"],
        "disk_hits": (stats["cache"] or {}).get("disk_hits", 0),
        "certificates": dict(stats["certificates"]),
    }


def _summed(snapshots) -> dict:
    """Key-wise sums of worker snapshots (nested counts sum per key)."""
    totals: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            totals[key] = (_summed([totals.get(key, {}), value])
                           if isinstance(value, dict)
                           else totals.get(key, 0) + value)
    return totals


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class ProcessBackend(WorkerBackend):
    """Ship work to a pool of long-lived worker processes.

    Parameters
    ----------
    service:
        The parent's service: its plan cache is checked before paying IPC
        and filled after harvest, and it runs the operations that do not
        ship (execute, pareto) locally.
    num_workers:
        Pool size.  Workers are spawned, never forked: the daemon is heavily
        threaded and fork would inherit locks in unknown states.
    poll_interval_s:
        Cadence of the ``should_abandon`` poll while waiting on a worker.
    """

    name = "process"

    def __init__(self, service: SolveService, *, num_workers: int = 2,
                 poll_interval_s: float = 0.05) -> None:
        self.service = service
        self.num_workers = max(1, int(num_workers))
        self.poll_interval_s = float(poll_interval_s)
        cache = service.cache
        self._cache_dir = cache.cache_dir if cache is not None else None
        self._cache_entries = cache.max_entries if cache is not None else 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker_stats: Dict[int, dict] = {}
        self._tasks_shipped = 0
        self._local_fallbacks = 0
        self._crashes = 0
        self._pool_rebuilds = 0

    # ------------------------------ lifecycle ------------------------- #
    def start(self) -> "ProcessBackend":
        # Best-effort warmup: pay the interpreter+numpy+scipy import cost
        # now, not inside the first request's latency.
        try:
            self.worker_pids()
        except Exception:  # pragma: no cover - warmup is advisory
            pass
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        import multiprocessing

        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(self._cache_dir, self._cache_entries),
        )

    def shutdown(self, *, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def worker_pids(self, timeout: float = 60.0) -> List[int]:
        """Pids of (a sample of) live workers -- the crash test's handle."""
        pool = self._require_pool()
        futures = [pool.submit(_worker_ping) for _ in range(self.num_workers)]
        return sorted({f.result(timeout=timeout) for f in futures})

    def _require_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    # ------------------------------ execution ------------------------- #
    def run(self, work, should_abandon: Callable[[], bool]):
        op = operation_for(work)
        if not op.ships:
            with self._stats_lock:
                self._local_fallbacks += 1
            return op.run(self.service, work, should_abandon)
        store = None
        if isinstance(work, SolveWork):
            cached, store = self._cached(work)
            if cached is not None:
                return cached
        response = self._ship(self._encode(work), should_abandon)
        self._graft_trace(response)
        if not response["ok"]:
            error = response["error"]
            if error["type"] == "SolveCancelledError":
                raise SolveCancelledError(error["message"])
            raise RemoteSolveError(error)
        # Trusted: the worker validated the schedule when it built the
        # result, and the bytes come from our own pool.
        result = _attached(pickle.loads(response["result"]), work.graph)
        if store is not None:
            store(result)
        return result

    def _encode(self, work) -> dict:
        """The task payload: the work's graph object and its request fields.

        The executor pickles the payload; the graph's ``__dict__`` carries
        its content-hash memo along, so the worker does not re-hash it.
        """
        tracer = get_tracer()
        return {
            "op": operation_for(work).name,
            "graph": work.graph,
            "request": request_fields(work),
            "trace": bool(tracer.enabled
                          and tracer.current_trace_id() is not None),
        }

    def _ship(self, payload: dict, should_abandon: Callable[[], bool]) -> dict:
        if should_abandon():
            raise SolveCancelledError("flight abandoned before dispatch")
        pool = self._require_pool()
        try:
            future = pool.submit(_run_task, payload)
        except BrokenProcessPool as exc:
            raise self._reap(pool, exc) from None
        with self._stats_lock:
            self._tasks_shipped += 1
        while True:
            try:
                response = future.result(timeout=self.poll_interval_s)
            except _FutureTimeout:
                if should_abandon():
                    if future.cancel():
                        # Never started: nothing to wait for.
                        raise SolveCancelledError(
                            "flight abandoned while queued for a worker")
                    # Already running in the worker: let it finish (it still
                    # populates the shared disk cache), then discard.
                    try:
                        response = future.result()
                    except BrokenProcessPool as exc:
                        raise self._reap(pool, exc) from None
                    self._harvest_stats(response)
                    raise SolveCancelledError(
                        "flight abandoned while running in a worker")
                continue
            except BrokenProcessPool as exc:
                raise self._reap(pool, exc) from None
            self._harvest_stats(response)
            return response

    def _reap(self, broken_pool: ProcessPoolExecutor,
              exc: BaseException) -> WorkerCrashError:
        """Replace a broken pool; only the flight whose worker died fails.
        Concurrent callers rebuild once (the lock plus the identity check)."""
        with self._pool_lock:
            if self._pool is broken_pool:
                self._pool = None
                try:
                    broken_pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - already broken
                    pass
                self._pool_rebuilds += 1
        with self._stats_lock:
            self._crashes += 1
        _log.error("worker process crashed; pool rebuilt: %s", exc)
        return WorkerCrashError(
            f"worker process died mid-flight ({exc}); pool rebuilt",
            info={"exception": type(exc).__name__})

    # ------------------------------ cache tiers ----------------------- #
    def _cached(self, work: SolveWork):
        """The parent cache's answer for ``work`` (``None`` on a miss) and
        a callback storing a fresh result under the same key and family."""
        service = self.service
        if service.cache is None:
            return None, lambda result: None
        spec = service.registry.get(work.strategy)
        options = (work.options if work.options is not None
                   else service.default_options)
        key, family, cached = service._plan_lookup(work.graph, spec,
                                                   work.budget, options)
        return cached, partial(service._plan_store, key, family, work.budget)

    # ------------------------------ observability --------------------- #
    def _harvest_stats(self, response: dict) -> None:
        pid = response.get("pid")
        stats = response.get("stats")
        if pid is None:
            return
        with self._stats_lock:
            if stats is not None:
                self._worker_stats[pid] = stats
            # Bound the per-pid map: drop oldest entries past 4x the pool
            # size (crashed workers leave their last snapshot behind).
            while len(self._worker_stats) > 4 * self.num_workers:
                self._worker_stats.pop(next(iter(self._worker_stats)))

    def _graft_trace(self, response: dict) -> None:
        rows = response.get("spans")
        if not rows:
            return
        tracer = get_tracer()
        ctx = tracer.current_context()
        if ctx is None or not tracer.enabled:
            return
        trace_id, parent_id = ctx
        # Rebase the worker's perf_counter() clock onto the parent's: both
        # sides stamp a (wall, perf) anchor pair, and wall clocks are shared
        # across processes on one host.
        now_perf = time.perf_counter()
        now_wall = time.time()
        offset = ((response["wall_anchor"] - response["perf_anchor"])
                  + (now_perf - now_wall))
        tracer.graft_rows(rows, trace_id, parent_id=parent_id,
                          offset_s=offset)

    def stats(self) -> dict:
        with self._stats_lock:
            workers = {str(pid): dict(s)
                       for pid, s in self._worker_stats.items()}
            aggregate = _summed(workers.values())
            return {
                "name": self.name,
                "pool_size": self.num_workers,
                "tasks_shipped": self._tasks_shipped,
                "local_fallbacks": self._local_fallbacks,
                "crashes": self._crashes,
                "pool_rebuilds": self._pool_rebuilds,
                "worker_totals": aggregate,
                "workers": workers,
            }


class RemoteSolveError(RuntimeError):
    """A worker-side exception, rebuilt from its structured wire payload."""

    def __init__(self, error: dict) -> None:
        super().__init__(f"{error.get('type', 'Error')}: "
                         f"{error.get('message', '')}")
        self.info = dict(error, type=error.get("type", "Error"))


def make_backend(name: str, service: SolveService, *,
                 num_workers: int = 2) -> WorkerBackend:
    """Resolve a backend by CLI name (``thread`` or ``process``)."""
    if name == "thread":
        return ThreadBackend(service)
    if name == "process":
        return ProcessBackend(service, num_workers=num_workers)
    raise ValueError(f"unknown worker backend {name!r}; "
                     "use 'thread' or 'process'")
