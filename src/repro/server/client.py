"""Thin stdlib client for the solve daemon's JSON API, used by the ``repro``
CLI, the tests and the examples.

Each calling thread keeps one HTTP/1.1 keep-alive connection to the server.
A queued operation is posted with ``wait_s``, so a job that settles in time
comes back whole in that one exchange: :meth:`ServeClient.wait` and
:meth:`ServeClient.result` then answer from the client without another
request.  A job still running is followed by long-polling.

Results come back as plain wire dicts; callers holding the original
:class:`~repro.core.dfgraph.DFGraph` can re-materialize a
:class:`~repro.core.schedule.ScheduledResult` with
:func:`~repro.utils.serialization.result_from_wire`.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from collections import OrderedDict
from functools import partialmethod
from typing import List, Optional

from ..core.dfgraph import DFGraph
from ..utils.serialization import graph_to_wire
from .ops import MAX_WAIT_S, OPERATIONS

__all__ = ["ServeClient", "ServeAPIError"]


class ServeAPIError(RuntimeError):
    """A non-2xx response from the server, carrying its status and message.

    ``retry_after`` is the parsed ``Retry-After`` header in seconds (503
    load shedding), or ``None`` when the server did not send one.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


#: Statuses worth retrying: 503 is the daemon's admission-control shed.
_RETRY_STATUSES = frozenset({503})
#: A kept-alive connection the server closed while idle fails like this
#: before any response arrives; the request never ran, so it is resent once.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError,
                     BrokenPipeError)
#: Settled job bodies kept for :meth:`ServeClient.wait`/``result``.
_SETTLED_MAX = 64


class ServeClient:
    """Client for one solve server, e.g. ``ServeClient("http://127.0.0.1:8765")``.

    Shed requests (503) are retried up to ``max_retries`` times with
    jittered exponential backoff, waiting at least the server's
    ``Retry-After``; jitter keeps the retries of many shed clients from
    returning as one herd.  ``max_retries=0`` surfaces every 503.

    One client may be shared by threads: each thread keeps its own
    connection, opened on its first request.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 max_retries: int = 2, backoff_s: float = 0.25,
                 backoff_cap_s: float = 8.0) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._rng = random.Random()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: job id -> (status, result body or None), for jobs settled inline.
        self._settled: "OrderedDict[str, tuple]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        return json.loads(self._request_raw(method, path, payload))

    def _request_raw(self, method: str, path: str,
                     payload: Optional[dict] = None) -> str:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServeAPIError as exc:
                if (exc.status not in _RETRY_STATUSES
                        or attempt >= self.max_retries):
                    raise
                self._sleep(self._retry_delay(attempt, exc.retry_after))
                attempt += 1

    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Full-jitter exponential backoff, bounded by the server's hint."""
        cap = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        delay = self._rng.uniform(cap / 2, cap)
        if retry_after is not None:
            # The server knows its own drain rate: wait at least that long
            # (plus our jitter fraction so herds still spread out).
            delay = max(delay, float(retry_after) * self._rng.uniform(1.0, 1.25))
        return delay

    @staticmethod
    def _sleep(delay: float) -> None:  # patchable in tests
        time.sleep(delay)

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (created on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._netloc, timeout=self.timeout)
        return conn

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None) -> str:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            # ``default=list``: iterables such as generators travel as arrays.
            data = json.dumps(payload, default=list).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            # ``sock`` is set while a kept-alive connection is open: only
            # then can a failure mean the server closed it while idle.
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                conn.close()
                if not reused:
                    raise
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServeAPIError(0, f"cannot reach {url}: {exc}") from None
        if 200 <= response.status < 300:
            return body.decode("utf-8")
        try:
            message = json.loads(body.decode("utf-8")).get("error", "")
        except (ValueError, AttributeError):
            message = response.reason
        retry_after = None
        raw = response.getheader("Retry-After")
        if raw is not None:
            try:
                retry_after = float(raw)
            except ValueError:
                retry_after = None
        raise ServeAPIError(response.status, str(message), retry_after)

    # ------------------------------------------------------------------ #
    # Operational endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus``: the text exposition body."""
        return self._request_raw("GET", "/v1/metrics?format=prometheus")

    def trace(self, job_id: str, fmt: Optional[str] = None) -> dict:
        """``GET /v1/trace/{job_id}``: span tree (or Chrome events with
        ``fmt="chrome"``) for a settled job, while its trace is still in the
        server's bounded trace store."""
        suffix = f"?format={fmt}" if fmt else ""
        return self._request("GET", f"/v1/trace/{job_id}{suffix}")

    def strategies(self) -> List[dict]:
        return self._request("GET", "/v1/strategies")["strategies"]

    def presets(self) -> dict:
        return self._request("GET", "/v1/presets")

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    def post(self, operation: str, *, graph: Optional[DFGraph] = None,
             preset: Optional[str] = None, scale: str = "ci",
             batch_size: Optional[int] = None,
             cost_model: Optional[str] = None,
             wait_s: Optional[float] = MAX_WAIT_S, **fields) -> dict:
        """``POST /v1/{operation}`` for an :data:`~repro.server.ops.OPERATIONS`
        entry, the graph by value (``graph=``) or by ``preset=``, plus the
        request ``fields`` that are not ``None``.  Returns the body: a job
        handle (queued operations) or the result (synchronous ones).

        A queued operation waits up to ``wait_s`` seconds (at most half the
        socket timeout) for its job to settle; the handle of a settled job
        carries its status under ``"job"``, and :meth:`wait`/:meth:`result`
        answer from it without another request.  ``wait_s=None`` (or ``0``)
        returns as soon as the job is queued."""
        if (graph is None) == (preset is None):
            raise ValueError("pass exactly one of graph= or preset=")
        if graph is not None:
            payload: dict = {"graph": graph_to_wire(graph)}
        else:
            payload = {"preset": preset, "scale": scale,
                       "batch_size": batch_size, "cost_model": cost_model}
        op = OPERATIONS[operation]
        if op.queued and wait_s is not None and wait_s > 0:
            payload["wait_s"] = min(wait_s, self.timeout / 2)
        payload.update(fields)
        body = self._request("POST", f"/v1/{operation}",
                             {k: v for k, v in payload.items() if v is not None})
        if op.queued and "job" in body:
            self._settle(body["job_id"], body["job"],
                         {"job": body["job"], op.result_key: body[op.result_key]}
                         if op.result_key in body else None)
        return body

    # One entry point per operation: ``submit_<name>(**request)`` (``lint``
    # for the synchronous lint) posts the graph (as for :meth:`post`), the
    # request fields of the operation's work type in :mod:`repro.server.ops`
    # and, when queued, ``priority``/``deadline_s``/``wait_s``.
    submit_solve = partialmethod(post, "solve")
    submit_sweep = partialmethod(post, "sweep")
    submit_execute = partialmethod(post, "execute")
    submit_pareto = partialmethod(post, "pareto")
    lint = partialmethod(post, "lint")

    def _settle(self, job_id: str, status: dict, result: Optional[dict]) -> None:
        with self._lock:
            self._settled[job_id] = (status, result)
            while len(self._settled) > _SETTLED_MAX:
                self._settled.popitem(last=False)

    def job(self, job_id: str, *, wait_s: Optional[float] = None) -> dict:
        """``GET /v1/jobs/{id}``; with ``wait_s``, the server answers once
        the job settles or ``wait_s`` passes (a long-poll)."""
        suffix = f"?wait_s={wait_s:.3f}" if wait_s is not None else ""
        return self._request("GET", f"/v1/jobs/{job_id}{suffix}")

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        suffix = f"?state={state}" if state else ""
        return self._request("GET", f"/v1/jobs{suffix}")["jobs"]

    def result(self, job_id: str) -> dict:
        """The raw result payload; raises :class:`ServeAPIError` (409) until
        done.  The result of a job settled inline is handed out once from
        the client; later calls fetch it from the server."""
        with self._lock:
            settled = self._settled.pop(job_id, (None, None))[1]
        if settled is not None:
            return settled
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll_interval: float = 0.1) -> dict:
        """Wait until the job settles; returns its final status dict.

        A job settled inline by its submit answers at once; otherwise each
        request long-polls the server.  Raises :class:`TimeoutError` if the
        job is still queued/running when ``timeout`` elapses (the job itself
        is left untouched).  ``poll_interval`` is accepted for compatibility
        and unused.
        """
        with self._lock:
            settled = self._settled.get(job_id)
        if settled is not None:
            return settled[0]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            status = self.job(job_id, wait_s=(
                min(remaining, MAX_WAIT_S, self.timeout / 2)
                if remaining > 0.001 else None))
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout:g}s")
