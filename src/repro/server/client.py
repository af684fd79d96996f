"""Thin stdlib client for the solve daemon's JSON API, used by the ``repro``
CLI, the tests and the examples.

Results come back as plain wire dicts; callers holding the original
:class:`~repro.core.dfgraph.DFGraph` can re-materialize a
:class:`~repro.core.schedule.ScheduledResult` with
:func:`~repro.utils.serialization.result_from_wire`.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from functools import partialmethod
from typing import List, Optional

from ..core.dfgraph import DFGraph
from ..utils.serialization import graph_to_wire

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


class ServeClient:
    """Client for one solve server, e.g. ``ServeClient("http://127.0.0.1:8765")``.

    Shed requests (503) are retried up to ``max_retries`` times with
    jittered exponential backoff, waiting at least the server's
    ``Retry-After``; jitter keeps the retries of many shed clients from
    returning as one herd.  ``max_retries=0`` surfaces every 503.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 max_retries: int = 2, backoff_s: float = 0.25,
                 backoff_cap_s: float = 8.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._rng = random.Random()

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

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None) -> str:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            # ``default=list``: iterables such as generators travel as arrays.
            data = json.dumps(payload, default=list).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError):
                message = exc.reason
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    retry_after = None
            raise ServeAPIError(exc.code, str(message), retry_after) from None
        except urllib.error.URLError as exc:
            raise ServeAPIError(0, f"cannot reach {url}: {exc.reason}") from None

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
             cost_model: Optional[str] = None, **fields) -> dict:
        """``POST /v1/{operation}`` for an :data:`~repro.server.ops.OPERATIONS`
        entry, the graph by value (``graph=``) or by ``preset=``, plus the
        request ``fields`` that are not ``None``.  Returns the body: a job
        handle (queued operations) or the result (synchronous ones)."""
        if (graph is None) == (preset is None):
            raise ValueError("pass exactly one of graph= or preset=")
        if graph is not None:
            payload: dict = {"graph": graph_to_wire(graph)}
        else:
            payload = {"preset": preset, "scale": scale,
                       "batch_size": batch_size, "cost_model": cost_model}
        payload.update(fields)
        return self._request("POST", f"/v1/{operation}",
                             {k: v for k, v in payload.items() if v is not None})

    # One entry point per operation: ``submit_<name>(**request)`` (``lint``
    # for the synchronous lint) posts the graph (as for :meth:`post`), the
    # request fields of the operation's work type in :mod:`repro.server.ops`
    # and, when queued, ``priority``/``deadline_s``.
    submit_solve = partialmethod(post, "solve")
    submit_sweep = partialmethod(post, "sweep")
    submit_execute = partialmethod(post, "execute")
    submit_pareto = partialmethod(post, "pareto")
    lint = partialmethod(post, "lint")

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        suffix = f"?state={state}" if state else ""
        return self._request("GET", f"/v1/jobs{suffix}")["jobs"]

    def result(self, job_id: str) -> dict:
        """The raw result payload; raises :class:`ServeAPIError` (409) until done."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll_interval: float = 0.1) -> dict:
        """Poll until the job settles; returns its final status dict.

        Raises :class:`TimeoutError` if the job is still queued/running when
        ``timeout`` elapses (the job itself is left untouched).
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout:g}s")
            time.sleep(poll_interval)
