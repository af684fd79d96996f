"""JSON-over-HTTP API for the solve daemon (stdlib only).

``POST /v1/<name>`` serves every entry of :data:`repro.server.ops.OPERATIONS`
(see that table).  Synchronous operations answer 200 with the result.  A
queued operation enqueues a job; if the request carries ``wait_s`` (positive
seconds, capped at :data:`~repro.server.ops.MAX_WAIT_S`) and the job settles
within it, the answer is 200 with the job handle, its status under ``"job"``
and, when done, the result under the entry's body key -- one exchange for a
whole solve.  Otherwise it is 202 with the handle: ``GET /v1/jobs/{id}``
(long-polling with ``?wait_s=``) follows the job and
``GET /v1/jobs/{id}/result`` returns the result body.  The job, health,
metrics, trace, strategy and preset routes are in :meth:`_Handler._route`.

Graphs enter a request **by value** (``"graph"``: a
:func:`repro.utils.serialization.graph_to_wire` dict) or **by preset**
(``"preset": "unet"`` plus optional ``"scale"``/``"batch_size"``/
``"cost_model"``), built server-side so shell clients never construct one.
Connections are HTTP/1.1 keep-alive and request handling is concurrent (a
thread per connection); solver work runs on the
:class:`~repro.server.jobs.JobQueue` worker pool.  Preset graphs are built
once per (preset, scale, batch size, cost model) and shared.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..core.dfgraph import DFGraph
from ..cost_model import COST_MODELS
from ..experiments.presets import EXPERIMENT_MODELS, build_training_graph
from ..obs.logging import get_logger
from ..obs.metrics import flatten_numeric, get_metrics_registry
from ..obs.trace import chrome_trace, get_tracer, span_tree
from ..service import SolveService
from ..utils.lru import SingleFlightLRU
from ..utils.serialization import graph_from_wire
from .jobs import Job, JobQueue, JobState, QueueFullError
from .ops import (
    MAX_WAIT_S,
    OPERATIONS,
    ApiError,
    Operation,
    queue_fields,
    seconds,
)

__all__ = ["SolveServer", "DEFAULT_PORT", "serve"]

DEFAULT_PORT = 8765
API_VERSION = "v1"

_log = get_logger("server.http")


def _queue_full(exc: QueueFullError) -> ApiError:
    """Map admission-control rejection onto the 503 shed contract."""
    import math

    retry_after = max(1, math.ceil(exc.retry_after_s))
    return ApiError(503, str(exc),
                    headers={"Retry-After": str(retry_after)},
                    extra={"retry_after_s": exc.retry_after_s,
                           "queue_depth": exc.depth,
                           "max_queue_depth": exc.limit})


#: Preset graphs by ``(preset, scale, batch_size, cost_model)``.  Requests
#: naming one cell share one instance, so its content hash is computed once
#: (the digest is memoized per graph object); graphs are never mutated.
_PRESET_GRAPHS: SingleFlightLRU[tuple, DFGraph] = SingleFlightLRU(64)


def _build_graph(payload: dict) -> DFGraph:
    """Resolve the request's graph: by wire value or by named preset."""
    has_graph = "graph" in payload and payload["graph"] is not None
    has_preset = "preset" in payload and payload["preset"] is not None
    if has_graph == has_preset:
        raise ApiError(400, "exactly one of 'graph' (wire format) or "
                            "'preset' (named workload) is required")
    if has_graph:
        try:
            return graph_from_wire(payload["graph"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ApiError(400, f"invalid graph payload: {exc}") from None

    preset = payload["preset"]
    if not isinstance(preset, str):
        raise ApiError(400, "'preset' must be a string")
    if preset not in EXPERIMENT_MODELS:
        raise ApiError(404, f"unknown preset {preset!r}; "
                            f"known: {sorted(EXPERIMENT_MODELS)}")
    scale = payload.get("scale", "ci")
    if scale not in ("ci", "paper"):
        raise ApiError(400, "'scale' must be 'ci' or 'paper'")
    cost_model_name = payload.get("cost_model", "flop")
    if not isinstance(cost_model_name, str) or cost_model_name not in COST_MODELS:
        raise ApiError(400, f"unknown cost_model {cost_model_name!r}; "
                            f"known: {sorted(COST_MODELS)}")
    batch_size = payload.get("batch_size")
    if batch_size is not None and (isinstance(batch_size, bool)
                                   or not isinstance(batch_size, int)
                                   or batch_size < 1):
        raise ApiError(400, "'batch_size' must be a positive integer")
    try:
        return _PRESET_GRAPHS.get_or_compute(
            (preset, scale, batch_size, cost_model_name),
            lambda: build_training_graph(
                preset, scale=scale, batch_size=batch_size,
                cost_model=COST_MODELS[cost_model_name]()))
    except (ValueError, TypeError, KeyError) as exc:
        raise ApiError(400, f"failed to build preset graph: {exc}") from None


def strategy_entries(registry) -> list:
    """The registry's strategies as JSON (``GET /v1/strategies``)."""
    return [{key: getattr(spec, key) for key in (
        "key", "description", "general_graphs", "cost_aware", "memory_aware",
        "linear_only", "has_budget_knob", "in_table1", "warm_start_capable")}
        for spec in registry]


class _App:
    """Routing + request handling, independent of the HTTP plumbing."""

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue

    def post(self, op: Operation, payload: dict) -> Tuple[int, dict]:
        """``POST /v1/<op>``: run a synchronous operation, or enqueue a
        queued one.  A job that settles within the request's ``wait_s``
        answers 200 with its status and (when done) its result; otherwise
        the answer is 202 with the job handle."""
        work = op.parse(payload, _build_graph(payload))
        if not op.queued:
            return 200, op.encode(op.run(self.queue.service, work, None))
        priority, deadline_s, wait_s = queue_fields(payload)
        try:
            job = self.queue.submit(op.name, work, priority=priority,
                                    deadline_s=deadline_s)
        except KeyError as exc:
            raise ApiError(404, str(exc.args[0])) from None
        except QueueFullError as exc:
            raise _queue_full(exc) from None
        except ValueError as exc:
            raise ApiError(400, str(exc)) from None
        if wait_s is None or not job.wait(wait_s):
            return 202, self._job_accepted(job)
        body = dict(self._job_accepted(job), job=job.to_dict())
        if job.state is JobState.DONE:
            body[op.result_key] = job.result
        return 200, body

    @staticmethod
    def _job_accepted(job: Job) -> dict:
        return {
            "job_id": job.id,
            "state": job.state.value,
            "deduplicated": job.deduplicated,
            "status_url": f"/{API_VERSION}/jobs/{job.id}",
            "result_url": f"/{API_VERSION}/jobs/{job.id}/result",
        }

    # ------------------------------ job access ------------------------ #
    def _job(self, job_id: str) -> Job:
        try:
            return self.queue.job(job_id)
        except KeyError:
            raise ApiError(404, f"unknown job {job_id!r}") from None

    def get_jobs(self, state: Optional[str]) -> Tuple[int, dict]:
        state_filter = None
        if state is not None:
            try:
                state_filter = JobState(state)
            except ValueError:
                raise ApiError(400, f"unknown state filter {state!r}") from None
        return 200, {"jobs": [j.to_dict() for j in self.queue.jobs(state_filter)]}

    def get_job(self, job_id: str,
                wait_s: Optional[str] = None) -> Tuple[int, dict]:
        """``GET /v1/jobs/{id}``; with ``?wait_s=`` a long-poll that answers
        once the job settles or the wait (capped at ``MAX_WAIT_S``) ends."""
        job = self._job(job_id)
        if wait_s is not None:
            try:
                wait = float(wait_s)
            except ValueError:
                wait = None
            job.wait(min(seconds(wait, "wait_s"), MAX_WAIT_S))
        return 200, job.to_dict()

    def get_result(self, job_id: str) -> Tuple[int, dict]:
        job = self._job(job_id)
        if job.state in (JobState.QUEUED, JobState.RUNNING):
            raise ApiError(409, f"job {job_id} is {job.state.value}; "
                                "result not available yet")
        if job.state is not JobState.DONE:
            raise ApiError(409, f"job {job_id} {job.state.value}: {job.error}")
        return 200, {"job": job.to_dict(),
                     OPERATIONS[job.kind].result_key: job.result}

    def cancel_job(self, job_id: str) -> Tuple[int, dict]:
        try:
            return 200, self.queue.cancel(job_id).to_dict()
        except KeyError:
            raise ApiError(404, f"unknown job {job_id!r}") from None

    # ------------------------------ operational ----------------------- #
    def get_healthz(self) -> Tuple[int, dict]:
        metrics = self.queue.metrics()
        return 200, dict({key: metrics[key] for key in (
            "uptime_s", "workers", "queue_depth", "max_queue_depth", "running")},
            status="ok", backend=self.queue.backend.name)

    def get_metrics(self, fmt: Optional[str] = None):
        """``/v1/metrics``: JSON, or with ``?format=prometheus`` the typed
        instrument registry and the service's certificate counter, plus the
        JSON payload flattened into ``repro_*`` gauges (so every
        ``SolveService.statistics()`` counter scrapes)."""
        payload = self.queue.metrics()
        tracer = get_tracer()
        payload["tracing"] = dict(tracer.store.stats(),
                                  enabled=tracer.enabled)
        if fmt is None or fmt == "json":
            return 200, payload
        if fmt != "prometheus":
            raise ApiError(400, f"unknown metrics format {fmt!r}; "
                                "use 'json' or 'prometheus'")
        registry = get_metrics_registry()
        text = registry.render_prometheus(
            extra_numeric=flatten_numeric(payload, prefix="repro"),
            extra_instruments=(self.queue.service.certificates,))
        return 200, text

    def get_trace(self, job_id: str, fmt: Optional[str] = None) -> Tuple[int, dict]:
        """``/v1/trace/{job_id}``: the span tree of the job's flight.

        ``?format=chrome`` returns Chrome trace-event JSON instead (save it
        and load in ``chrome://tracing`` / Perfetto).
        """
        job = self._job(job_id)
        if job.trace_id is None:
            raise ApiError(404, f"job {job_id} has no trace "
                                "(tracing disabled at submission?)")
        spans = get_tracer().store.spans(job.trace_id)
        if not spans:
            raise ApiError(404, f"trace {job.trace_id} of job {job_id} has "
                                "no recorded spans (evicted or still running)")
        if fmt == "chrome":
            return 200, chrome_trace(spans)
        if fmt is not None and fmt != "tree":
            raise ApiError(400, f"unknown trace format {fmt!r}; "
                                "use 'tree' or 'chrome'")
        return 200, {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state.value,
            "span_count": len(spans),
            "phases": get_tracer().store.phase_totals(job.trace_id),
            "tree": span_tree(spans),
        }

    def get_strategies(self) -> Tuple[int, dict]:
        return 200, {"strategies": strategy_entries(self.queue.service.registry)}

    def get_presets(self) -> Tuple[int, dict]:
        presets = [{"key": key, "name": model.name,
                    "ci_kwargs": model.ci_kwargs,
                    "paper_kwargs": model.paper_kwargs}
                   for key, model in EXPERIMENT_MODELS.items()]
        return 200, {"presets": presets, "scales": ["ci", "paper"],
                     "cost_models": sorted(COST_MODELS)}


_JOB_PATH = re.compile(rf"^/{API_VERSION}/jobs/(?P<job_id>[0-9a-f]+)"
                       r"(?P<sub>/result|/cancel)?$")
_TRACE_PATH = re.compile(rf"^/{API_VERSION}/trace/(?P<job_id>[0-9a-f]+)$")
#: Collapses job ids out of paths for bounded-cardinality route labels.
_ROUTE_LABEL = re.compile(r"/[0-9a-f]{12,}")

_HTTP_REQUESTS = get_metrics_registry().counter(
    "repro_http_requests_total",
    "HTTP requests served by the solve daemon.",
    labelnames=("method", "route", "code"),
)


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP verbs/paths onto the :class:`_App` methods."""

    server_version = "repro-solve-server/1.0"
    protocol_version = "HTTP/1.1"
    # Socket timeout honored by BaseHTTPRequestHandler: a client that stalls
    # mid-request (or idles on a keep-alive connection) releases its handler
    # thread instead of pinning it forever on the long-lived daemon.
    timeout = 60
    # TCP_NODELAY: a response leaves in two writes (headers, then body), and
    # on a kept-alive connection Nagle's algorithm would hold the body back
    # until the client's delayed ACK of the headers, about 40 ms.
    disable_nagle_algorithm = True

    # Set by SolveServer via the server instance.
    @property
    def app(self) -> _App:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    def _send(self, status: int, body,
              headers: Optional[dict] = None) -> None:
        # Routes return a dict (JSON) or a str (preformatted text body --
        # the Prometheus exposition).
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> dict:
        if not self._body:
            raise ApiError(400, "request body required")
        try:
            payload = json.loads(self._body)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ApiError(400, "JSON body must be an object")
        return payload

    def _dispatch(self, method: str) -> None:
        path = self.path.partition("?")[0].rstrip("/") or "/"
        route = _ROUTE_LABEL.sub("/{id}", path)
        extra_headers: Optional[dict] = None
        try:
            with get_tracer().span("http-request", method=method,
                                   route=route) as span:
                try:
                    # Read the whole body up front: HTTP/1.1 keep-alive would
                    # misparse unread bytes as the next request.
                    length = self.headers.get("Content-Length") or "0"
                    if not length.isdigit():
                        raise ApiError(400, "invalid Content-Length")
                    self._body = self.rfile.read(int(length))
                    status, body = self._route(method)
                except ApiError as exc:
                    status, body = exc.status, dict({"error": exc.message},
                                                    **exc.extra)
                    extra_headers = exc.headers or None
                except Exception as exc:  # noqa: BLE001 - request isolation boundary
                    _log.error("unhandled error in %s %s: %s: %s",
                               method, path, type(exc).__name__, exc,
                               exc_info=True)
                    status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
                span.set_attribute("status", status)
            _HTTP_REQUESTS.inc(method=method, route=route, code=str(status))
            self._send(status, body, extra_headers)
        except (TimeoutError, OSError) as exc:
            # Stalled or vanished client: the stream is unusable (a partial
            # body read would corrupt keep-alive framing) -- drop it.
            _log.warning("client connection dropped on %s %s: %s",
                         method, path, exc)
            self.close_connection = True

    def _route(self, method: str) -> Tuple[int, dict]:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        params = dict(pair.split("=", 1) for pair in query.split("&") if "=" in pair)
        app = self.app

        if method == "GET":
            if path == f"/{API_VERSION}/healthz":
                return app.get_healthz()
            if path == f"/{API_VERSION}/metrics":
                return app.get_metrics(params.get("format"))
            if path == f"/{API_VERSION}/strategies":
                return app.get_strategies()
            if path == f"/{API_VERSION}/presets":
                return app.get_presets()
            if path == f"/{API_VERSION}/jobs":
                return app.get_jobs(params.get("state"))
            match = _TRACE_PATH.match(path)
            if match:
                return app.get_trace(match.group("job_id"),
                                     params.get("format"))
            match = _JOB_PATH.match(path)
            if match and match.group("sub") in (None, "/result"):
                if match.group("sub") == "/result":
                    return app.get_result(match.group("job_id"))
                return app.get_job(match.group("job_id"),
                                   params.get("wait_s"))
        elif method == "POST":
            prefix, _, name = path.rpartition("/")
            if prefix == f"/{API_VERSION}" and name in OPERATIONS:
                return app.post(OPERATIONS[name], self._read_json())
            match = _JOB_PATH.match(path)
            if match and match.group("sub") == "/cancel":
                return app.cancel_job(match.group("job_id"))
        elif method == "DELETE":
            match = _JOB_PATH.match(path)
            if match and match.group("sub") is None:
                return app.cancel_job(match.group("job_id"))
        raise ApiError(404, f"no route for {method} {path}")

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class _HTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can end its kept-alive connections."""

    daemon_threads = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Stop reading every open connection: an idle one closes at once,
        a busy one once its response is sent."""
        with self._connections_lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class SolveServer:
    """The solve daemon: a :class:`JobQueue` behind a threading HTTP server.

    ``SolveServer(port=0).start()`` serves on an ephemeral port (see
    :attr:`url`) until :meth:`stop`; it is also a context manager, and
    ``repro serve`` wraps it.  Without a ``queue``, one is built
    from ``service`` (default: a fresh one; pass your own to share a plan
    cache with in-process callers) and ``queue_options`` (``num_workers``,
    ``backend``, ``max_queue_depth``, ``default_deadline_s``; see
    :class:`JobQueue`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 service: Optional[SolveService] = None,
                 queue: Optional[JobQueue] = None,
                 verbose: bool = False,
                 tracing: bool = False, **queue_options) -> None:
        # Bridge finished spans into the per-phase latency histograms so the
        # Prometheus scrape has repro_phase_seconds whenever tracing is on.
        from ..obs import install_phase_histograms

        install_phase_histograms()
        if tracing:
            get_tracer().enable()
        self.queue = (queue if queue is not None
                      else JobQueue(service, **queue_options))
        self.app = _App(self.queue)
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SolveServer":
        """Start the worker pool and serve HTTP on a background thread."""
        self.queue.start()
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(target=self._httpd.serve_forever,
                                            name="repro-serve-http", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant used by ``repro serve`` (Ctrl-C or SIGTERM stops it)."""
        self.queue.start()
        self._serving = True
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self._serving = False
            self.stop()

    def stop(self) -> None:
        """Stop accepting requests and shut the worker pool down (idempotent).

        Kept-alive connections take no further request; a submit waiting
        inline still gets its job's terminal status (queued jobs are
        cancelled)."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            # shutdown() only returns once a serve_forever loop acknowledges;
            # calling it with no loop running would block forever.
            self._httpd.shutdown()
        self._httpd.end_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.queue.shutdown(wait=True, drain=False)

    def __enter__(self) -> "SolveServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(*args, **kwargs) -> SolveServer:
    """Build and start a :class:`SolveServer` (background thread) with the
    constructor's arguments; returns it."""
    return SolveServer(*args, **kwargs).start()
