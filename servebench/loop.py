"""The closed-loop client and the correctness gate.

Each client thread sends its next request only after the previous one came
back decoded, through ``ServeClient.submit_solve``/``wait``/``result`` only,
so a client-side change (fewer round trips, say) lands without editing this
file.  Every result is decoded with ``result_from_wire`` against the client's
own graph, which re-validates the schedule, and must be feasible, within its
budget and agree with the cost and peak the server claimed.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.server.client import ServeAPIError, ServeClient
from repro.utils import serialization

from .workloads import Request

__all__ = ["Outcome", "LoopResult", "run_closed_loop", "quantile", "CLIENTS",
           "POLL_INTERVAL_S"]

#: Client threads: one per daemon worker (and per CPU on the reference host).
CLIENTS = 2
#: ``ServeClient.wait`` poll period.  Far below a hot request's ~7 ms, so
#: polling adds at most 2 ms where the 0.1 s default adds 100; not lower,
#: because every poll is an HTTP round trip that takes CPU from HiGHS.
POLL_INTERVAL_S = 0.002
REQUEST_TIMEOUT_S = 120.0


class GateError(Exception):
    """A result that must not count as served."""


@dataclass
class Outcome:
    index: int
    ok: bool
    latency_s: float = 0.0
    overhead: float = 0.0
    schedule_sha: str = ""
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    error: str = ""


@dataclass
class LoopResult:
    outcomes: List[Outcome]
    elapsed_s: float
    exhausted: bool
    start: float = 0.0
    end: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def done(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def check(request: Request, wire: dict, status: dict) -> Outcome:
    """Decode one result against the client graph and gate it."""
    result = serialization.result_from_wire(wire, request.graph)
    if not result.feasible or result.matrices is None:
        raise GateError(f"infeasible: {result.solver_status}")
    if request.budget is not None:
        if result.budget != int(request.budget):
            raise GateError(f"budget {result.budget} != {int(request.budget)}")
        if not result.within_budget():
            raise GateError(f"peak {result.peak_memory} over budget {result.budget}")
    if wire.get("peak_memory") != result.peak_memory:
        raise GateError(f"server peak {wire.get('peak_memory')} != "
                        f"recomputed {result.peak_memory}")
    claimed = wire.get("compute_cost")
    if claimed is None or not math.isclose(claimed, result.compute_cost,
                                           rel_tol=1e-9):
        raise GateError(f"server cost {claimed} != recomputed {result.compute_cost}")
    return Outcome(request.index, True, overhead=result.overhead,
                   schedule_sha=hashlib.sha256(
                       wire["schedule"].encode("utf-8")).hexdigest(),
                   queue_wait_s=status.get("wait_s") or 0.0,
                   run_s=status.get("run_s") or 0.0)


def _serve_one(client: ServeClient, request: Request) -> Outcome:
    start = time.perf_counter()
    handle = client.submit_solve(
        strategy=request.strategy, budget=request.budget,
        graph=request.graph if request.preset is None else None,
        preset=request.preset,
        batch_size=request.batch_size if request.preset is not None else None)
    status = client.wait(handle["job_id"], timeout=REQUEST_TIMEOUT_S,
                         poll_interval=POLL_INTERVAL_S)
    if status["state"] != "done":
        raise GateError(f"job {status['state']}: {status.get('error')}")
    body = client.result(handle["job_id"])
    outcome = check(request, body["result"], status)
    outcome.latency_s = time.perf_counter() - start
    return outcome


def run_closed_loop(url: str, requests: Sequence[Request], seconds: float,
                    clients: int = CLIENTS) -> LoopResult:
    """Serve ``requests`` in index order from ``clients`` closed-loop
    threads until ``seconds`` pass (in-flight requests still finish)."""
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        # max_retries=0: a 503 shed is a failure, not a hidden retry.
        client = ServeClient(url, timeout=REQUEST_TIMEOUT_S, max_retries=0)
        while True:
            with lock:
                if cursor[0] >= len(requests) or time.perf_counter() >= stop_at:
                    return
                request = requests[cursor[0]]
                cursor[0] += 1
            try:
                outcome = _serve_one(client, request)
            except (ServeAPIError, GateError, ValueError, KeyError,
                    TimeoutError) as exc:
                outcome = Outcome(request.index, False,
                                  error=f"{type(exc).__name__}: {exc}")
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=worker, name=f"servebench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    outcomes.sort(key=lambda o: o.index)
    return LoopResult(outcomes, end - start,
                      exhausted=cursor[0] >= len(requests) and end < stop_at,
                      start=start, end=end,
                      errors=[f"request {o.index}: {o.error}"
                              for o in outcomes if not o.ok])


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least ``q`` of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` quantile of ``n``."""
    return n - max(1, math.ceil(q * n))


def digest(outcomes: Sequence[Outcome], prefix: int) -> Optional[str]:
    """SHA-256 over the schedules of requests ``0 .. prefix-1``, or ``None``
    when the run did not serve all of them."""
    by_index: Dict[int, Outcome] = {o.index: o for o in outcomes if o.ok}
    if any(i not in by_index for i in range(prefix)):
        return None
    h = hashlib.sha256()
    for i in range(prefix):
        h.update(f"{i}:{by_index[i].schedule_sha}\n".encode())
    return h.hexdigest()
