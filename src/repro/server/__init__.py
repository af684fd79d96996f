"""Solve-as-a-service: async job queue, HTTP API and client.

This package turns the in-process :class:`~repro.service.solve.SolveService`
into a long-lived daemon -- the serving layer a production deployment puts in
front of the solvers:

* :mod:`repro.server.ops` -- the operation table: every served operation
  (solve, sweep, execute, pareto, lint) declared once, from which the
  routes, queue entry points, backend dispatch, client and CLI derive;
* :mod:`repro.server.jobs` -- :class:`JobQueue`: priority ordering, a bounded
  worker pool, the ``queued -> running -> done/failed/cancelled`` lifecycle,
  and single-flighting of identical concurrent submissions (one solver
  invocation, shared by every duplicate, all backed by the plan cache);
* :mod:`repro.server.http` -- :class:`SolveServer`: the stdlib JSON-over-HTTP
  API (``POST /v1/<operation>``, ``/v1/jobs/{id}``, ``/v1/healthz``,
  ``/v1/metrics``, ...) with graphs uploaded in the
  :mod:`repro.utils.serialization` wire format or addressed by experiment
  preset name;
* :mod:`repro.server.client` -- :class:`ServeClient`: the stdlib client the
  ``repro`` CLI, the tests and the examples drive the daemon with; one
  keep-alive connection per thread, and a solve that settles within its
  ``wait_s`` takes a single HTTP exchange.

Quick use::

    from repro.server import SolveServer, ServeClient

    with SolveServer(port=0) as server:          # ephemeral port
        client = ServeClient(server.url)
        handle = client.submit_solve(preset="unet", strategy="checkmate_approx",
                                     budget=2 * 2**30)
        client.wait(handle["job_id"])          # answered from the submit
        print(client.result(handle["job_id"])["result"]["compute_cost"])

From the shell: ``repro serve`` (see ``repro --help``).
"""

from .client import ServeAPIError, ServeClient
from .http import DEFAULT_PORT, SolveServer, serve
from .jobs import Job, JobQueue, JobState

__all__ = [
    "ServeAPIError",
    "ServeClient",
    "DEFAULT_PORT",
    "SolveServer",
    "serve",
    "Job",
    "JobQueue",
    "JobState",
]
