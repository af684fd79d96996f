"""Tests for the solve-as-a-service subsystem: job queue, HTTP API, metrics.

The end-to-end dedup test is the PR's acceptance criterion: N concurrent
clients submitting the identical (graph, strategy, budget) cell must trigger
exactly one solver invocation, all receive identical results, and the
``/v1/metrics`` counters must reflect the deduplication.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import weakref

import pytest

from repro.baselines import solve_checkpoint_all
from repro.obs import validate_prometheus_text
from repro.server import (
    JobQueue,
    JobState,
    ServeAPIError,
    ServeClient,
    SolveServer,
)
from repro.service import (
    PlanCache,
    SolverSpec,
    SolveService,
    default_registry,
)

from helpers import ample_budget, no_recompute_peak


# --------------------------------------------------------------------------- #
# Instrumented registries
# --------------------------------------------------------------------------- #
class Gate:
    """A solver whose execution blocks until released, counting invocations."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def solve(self, graph, budget=None, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(30), "gate was never released"
        return solve_checkpoint_all(graph, budget)


def counting_registry(wrapped_key: str = "ap_sqrt_n"):
    """The default registry plus a gate solver and a counted wrapper."""
    registry = default_registry()
    gate = Gate()
    registry.register(SolverSpec(
        key="gated", description="blocks until released (test fixture)",
        solve=gate.solve))
    inner = registry.get(wrapped_key)
    counter = {"calls": 0}
    lock = threading.Lock()

    def counted(graph, budget=None, **kwargs):
        with lock:
            counter["calls"] += 1
        return inner.solve(graph, budget, **kwargs)

    registry.register(SolverSpec(
        key=wrapped_key, description=inner.description, solve=counted,
        option_map=inner.option_map), overwrite=True)
    return registry, gate, counter


def failing_registry():
    registry = default_registry()

    def explode(graph, budget=None, **kwargs):
        raise RuntimeError("synthetic solver crash")

    registry.register(SolverSpec(
        key="explode", description="always fails (test fixture)", solve=explode))
    return registry


# --------------------------------------------------------------------------- #
# JobQueue lifecycle (no HTTP)
# --------------------------------------------------------------------------- #
class TestJobQueueLifecycle:
    def test_submit_and_complete(self, chain5_train):
        with JobQueue(SolveService(), num_workers=2) as queue:
            job = queue.submit_solve(chain5_train, "checkpoint_all")
            assert job.wait(30)
            assert job.state is JobState.DONE
            assert job.result["feasible"]
            assert job.started_at is not None and job.finished_at is not None
            assert job.error is None

    def test_failed_job_reports_error(self, chain5_train):
        with JobQueue(SolveService(registry=failing_registry(), cache=None),
                      num_workers=1) as queue:
            job = queue.submit_solve(chain5_train, "explode")
            assert job.wait(30)
            assert job.state is JobState.FAILED
            assert "synthetic solver crash" in job.error
            assert job.result is None

    def test_unknown_strategy_rejected_at_submission(self, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            with pytest.raises(KeyError):
                queue.submit_solve(chain5_train, "not-a-strategy")

    def test_cancel_queued_job(self, chain5_train, diamond_train):
        registry, gate, _ = counting_registry()
        with JobQueue(SolveService(registry=registry, cache=None),
                      num_workers=1) as queue:
            blocker = queue.submit_solve(chain5_train, "gated")
            assert gate.started.wait(30)
            victim = queue.submit_solve(diamond_train, "checkpoint_all")
            cancelled = queue.cancel(victim.id)
            assert cancelled.state is JobState.CANCELLED
            assert victim.wait(1)
            gate.release.set()
            assert blocker.wait(30)
            assert blocker.state is JobState.DONE
            # The cancelled job never ran.
            assert victim.started_at is None
            assert victim.result is None

    def test_cancelling_whole_flight_skips_solver(self, chain5_train, diamond_train):
        registry, gate, counter = counting_registry()
        with JobQueue(SolveService(registry=registry, cache=None),
                      num_workers=1) as queue:
            blocker = queue.submit_solve(chain5_train, "gated")
            assert gate.started.wait(30)
            budget = ample_budget(diamond_train)
            jobs = [queue.submit_solve(diamond_train, "ap_sqrt_n", budget)
                    for _ in range(3)]
            assert [j.deduplicated for j in jobs] == [False, True, True]
            for j in jobs:
                queue.cancel(j.id)
            gate.release.set()
            assert blocker.wait(30)
            queue.shutdown(wait=True)  # drain: pops the abandoned flight
            assert counter["calls"] == 0
            assert all(j.state is JobState.CANCELLED for j in jobs)

    def test_cancel_terminal_job_is_noop(self, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            job = queue.submit_solve(chain5_train, "checkpoint_all")
            assert job.wait(30)
            assert queue.cancel(job.id).state is JobState.DONE

    def test_priority_orders_queued_work(self, chain5_train, diamond_train,
                                         varied_chain_train):
        registry, gate, _ = counting_registry()
        order = []
        with JobQueue(SolveService(registry=registry, cache=None),
                      num_workers=1) as queue:
            blocker = queue.submit_solve(chain5_train, "gated")
            assert gate.started.wait(30)
            low = queue.submit_solve(diamond_train, "checkpoint_all", priority=5)
            high = queue.submit_solve(varied_chain_train, "checkpoint_all",
                                      priority=-5)
            gate.release.set()
            for job in (blocker, low, high):
                assert job.wait(30)
            order = sorted([low, high], key=lambda j: j.started_at)
        assert order[0] is high  # lower priority value ran first

    def test_sweep_job(self, chain5_train):
        with JobQueue(SolveService(), num_workers=2) as queue:
            budget = ample_budget(chain5_train)
            job = queue.submit_sweep(
                chain5_train, [("checkpoint_all", budget), ("chen_sqrt_n", budget)])
            assert job.wait(30)
            assert job.state is JobState.DONE
            assert [r["strategy"] for r in job.result] == \
                   ["checkpoint-all", "chen-sqrt(n)"]

    def test_sweep_requires_cells(self, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            with pytest.raises(ValueError):
                queue.submit_sweep(chain5_train, [])

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            JobQueue(SolveService(), num_workers=0)

    def test_history_pruning_keeps_active_jobs(self, chain5_train):
        with JobQueue(SolveService(), num_workers=1, max_history=3) as queue:
            jobs = [queue.submit_solve(chain5_train, "checkpoint_all",
                                       ample_budget(chain5_train) + i)
                    for i in range(6)]
            for j in jobs:
                assert j.wait(30)
            assert len(queue.jobs()) <= 3

    def test_history_pruning_drops_the_oldest_terminal_jobs(self,
                                                             chain5_train):
        registry, gate, _ = counting_registry()
        with JobQueue(SolveService(registry=registry, cache=None),
                      num_workers=2, max_history=3) as queue:
            active = queue.submit_solve(chain5_train, "gated")
            assert gate.started.wait(30)
            done = []
            for i in range(4):
                done.append(queue.submit_solve(
                    chain5_train, "checkpoint_all",
                    ample_budget(chain5_train) + i))
                assert done[-1].wait(30)
            # The running job is the oldest but survives; the two oldest
            # terminal jobs went, in submission order.
            assert [j.id for j in queue.jobs()] == \
                [active.id, done[2].id, done[3].id]
            gate.release.set()
            assert active.wait(30)

    def test_restart_after_undrained_shutdown(self, chain5_train):
        # A drain=False shutdown must retire queued flights: a later restart
        # + identical submission must run fresh, not dedup onto a dead flight.
        queue = JobQueue(SolveService(), num_workers=1)  # never started yet
        budget = ample_budget(chain5_train)
        first = queue.submit_solve(chain5_train, "checkpoint_all", budget)
        queue.shutdown(wait=True, drain=False)
        assert first.state is JobState.CANCELLED
        try:
            queue.start()
            second = queue.submit_solve(chain5_train, "checkpoint_all", budget)
            assert not second.deduplicated
            assert second.wait(30)
            assert second.state is JobState.DONE
        finally:
            queue.shutdown(wait=True, drain=False)

    def test_late_joiner_survives_flight_cancellation(self, chain5_train):
        # A submission that joins a flight after its abandonment verdict must
        # be re-flown, not spuriously settled as cancelled.
        registry = default_registry()
        release = threading.Event()
        started = threading.Event()
        calls = {"n": 0}

        def cancellable(graph, budget=None, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                started.set()
                assert release.wait(30)
                # Simulates the should_cancel verdict firing mid-flight.
                from repro.service import SolveCancelledError
                raise SolveCancelledError("all members cancelled")
            return solve_checkpoint_all(graph, budget)

        registry.register(SolverSpec(key="cancellable",
                                     description="test fixture",
                                     solve=cancellable))
        with JobQueue(SolveService(registry=registry, cache=None),
                      num_workers=1) as queue:
            first = queue.submit_solve(chain5_train, "cancellable")
            assert started.wait(30)
            queue.cancel(first.id)
            late = queue.submit_solve(chain5_train, "cancellable")
            assert late.deduplicated  # joined the in-flight group
            release.set()
            assert late.wait(30)
            assert late.state is JobState.DONE
            assert first.state is JobState.CANCELLED

    def test_metrics_shape(self, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            job = queue.submit_solve(chain5_train, "checkpoint_all")
            assert job.wait(30)
            metrics = queue.metrics()
            assert metrics["jobs"]["submitted"] == 1
            assert metrics["jobs_by_state"]["done"] == 1
            assert metrics["solve_latency"]["count"] == 1
            assert metrics["service"]["solver_calls"] == 1
            assert metrics["service"]["cache"]["misses"] == 1


# --------------------------------------------------------------------------- #
# HTTP API end-to-end
# --------------------------------------------------------------------------- #
@pytest.fixture()
def server():
    with SolveServer(port=0, num_workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=30)


class TestHttpApi:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_solve_by_graph_upload(self, client, chain5_train):
        handle = client.submit_solve(graph=chain5_train,
                                     strategy="checkpoint_all")
        status = client.wait(handle["job_id"], timeout=30)
        assert status["state"] == "done"
        payload = client.result(handle["job_id"])
        assert payload["result"]["feasible"] is True
        assert payload["result"]["strategy"] == "checkpoint-all"

    def test_solve_by_preset(self, client):
        handle = client.submit_solve(preset="resnet_tiny",
                                     strategy="checkpoint_all")
        status = client.wait(handle["job_id"], timeout=60)
        assert status["state"] == "done"
        assert client.result(handle["job_id"])["result"]["feasible"] is True

    def test_sweep_grid(self, client):
        handle = client.submit_sweep(preset="resnet_tiny",
                                     strategies=["checkpoint_all", "ap_sqrt_n"],
                                     budgets=[None, 8 * 2**30])
        status = client.wait(handle["job_id"], timeout=60)
        assert status["state"] == "done"
        results = client.result(handle["job_id"])["results"]
        assert len(results) == 4

    def test_lint_by_preset(self, client):
        report = client.lint(preset="deepblock")
        assert report["ok"] is True
        assert report["counts"]["error"] == 0
        # The identity aliases surface as C002 fusion-candidate infos.
        assert any(d["code"] == "C002" for d in report["diagnostics"])

    def test_lint_by_graph_upload_with_budget(self, client, chain5_train):
        report = client.lint(graph=chain5_train, budget=1.0)
        assert any(d["code"] == "B001" for d in report["diagnostics"])
        assert report["ok"] is True  # B001 is a warning

    def test_execute_by_preset(self, client):
        handle = client.submit_execute(preset="linear_mlp",
                                       strategy="checkmate_ilp",
                                       budget=8 * 2**30, seed=1)
        status = client.wait(handle["job_id"], timeout=120)
        assert status["state"] == "done", status
        payload = client.result(handle["job_id"])
        report = payload["report"]
        assert report["ok"] is True
        assert report["executed"] is True
        assert report["outputs_match"] is True
        assert report["measured_peak_bytes"] == report["predicted_plan_peak"]
        assert payload["job"]["kind"] == "execute"

    def test_execute_by_graph_upload(self, client):
        from repro.experiments.presets import build_training_graph

        graph = build_training_graph("linear_cnn", scale="ci")
        budget = graph.constant_overhead + 0.8 * graph.total_activation_memory()
        handle = client.submit_execute(graph=graph, strategy="checkmate_ilp",
                                       budget=budget)
        status = client.wait(handle["job_id"], timeout=120)
        assert status["state"] == "done", status
        report = client.result(handle["job_id"])["report"]
        assert report["ok"] is True
        assert report["within_budget"] is True
        assert report["measured_peak_bytes"] <= budget

    def test_execute_rejects_graph_without_metadata(self, client, chain5_train):
        # chain5_train is a hand-built graph: no builder op types to bind.
        with pytest.raises(ServeAPIError) as err:
            client.submit_execute(graph=chain5_train, strategy="checkpoint_all")
        assert err.value.status == 400
        assert "not executable" in err.value.message

    # checkmate_bnb names a test oracle, not a strategy.
    @pytest.mark.parametrize("strategy", ["nope", "checkmate_bnb"])
    def test_execute_validates_payload(self, client, strategy):
        with pytest.raises(ServeAPIError) as err:
            client.submit_execute(preset="linear_mlp", strategy=strategy)
        assert err.value.status == 404
        with pytest.raises(ServeAPIError) as err:
            client._request("POST", "/v1/execute",
                            {"preset": "linear_mlp", "strategy": "checkpoint_all",
                             "seed": "zero"})
        assert err.value.status == 400
        assert "seed" in err.value.message

    def test_execute_counts_in_metrics(self, client):
        handle = client.submit_execute(preset="linear_mlp",
                                       strategy="checkpoint_all")
        client.wait(handle["job_id"], timeout=120)
        metrics = client.metrics()
        assert metrics["service"]["executions"] >= 1
        # Every process-wide cache reports the same schema.
        for name in ("cache", "formulation_cache", "lp_relaxation_cache",
                     "lint_cache"):
            stats = metrics["service"][name]
            assert {"entries", "max_entries", "hits", "misses", "evictions",
                    "hit_rate"} <= set(stats), name
        assert "compiles" in metrics["service"]["formulation_cache"]
        assert "solves" in metrics["service"]["lp_relaxation_cache"]
        lint = metrics["service"]["lint_cache"]
        assert lint["hits"] + lint["misses"] >= 1

    def test_result_conflict_while_pending(self, chain5_train):
        # A queued/running job answers 409, not a broken payload.
        registry, gate, _ = counting_registry()
        with SolveServer(port=0, service=SolveService(registry=registry),
                         num_workers=1) as gated_srv:
            gated_client = ServeClient(gated_srv.url, timeout=30)
            handle = gated_client.submit_solve(graph=chain5_train,
                                               strategy="gated", wait_s=None)
            assert gate.started.wait(30)
            with pytest.raises(ServeAPIError) as err:
                gated_client.result(handle["job_id"])
            assert err.value.status == 409
            gate.release.set()

    def test_cancel_endpoint(self, chain5_train, diamond_train):
        registry, gate, _ = counting_registry()
        with SolveServer(port=0, service=SolveService(registry=registry),
                         num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            client.submit_solve(graph=chain5_train, strategy="gated",
                                wait_s=None)
            assert gate.started.wait(30)
            victim = client.submit_solve(graph=diamond_train,
                                         strategy="checkpoint_all", wait_s=None)
            assert client.cancel(victim["job_id"])["state"] == "cancelled"
            with pytest.raises(ServeAPIError) as err:
                client.result(victim["job_id"])
            assert err.value.status == 409
            assert "cancelled" in err.value.message
            gate.release.set()

    def test_failed_job_surfaces_error(self, chain5_train):
        with SolveServer(port=0,
                         service=SolveService(registry=failing_registry(),
                                              cache=None),
                         num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            handle = client.submit_solve(graph=chain5_train, strategy="explode")
            status = client.wait(handle["job_id"], timeout=30)
            assert status["state"] == "failed"
            assert "synthetic solver crash" in status["error"]

    def test_error_statuses(self, client):
        with pytest.raises(ServeAPIError) as err:
            client.job("feedcafe0000")
        assert err.value.status == 404
        with pytest.raises(ServeAPIError) as err:
            client.submit_solve(preset="not-a-preset", strategy="checkpoint_all")
        assert err.value.status == 404
        with pytest.raises(ServeAPIError) as err:
            client.submit_solve(preset="resnet_tiny", strategy="checkpoint_all",
                                options={"warp_speed": True})
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            client.submit_solve(preset="resnet_tiny", strategy="checkpoint_all",
                                options={"checkpoints": 5})  # not iterable
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_keepalive_connection_survives_error_with_body(self, server):
        # An errored POST must still drain its body, or the next request on
        # the same HTTP/1.1 connection would parse leftover bytes.
        import http.client
        import json as json_mod
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            body = json_mod.dumps({"pad": "x" * 4096})
            conn.request("POST", "/v1/nope", body=body,
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().read() and True  # 404, body consumed
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json_mod.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    def test_strategies_and_presets_endpoints(self, client):
        strategies = {e["key"] for e in client.strategies()}
        assert {"checkpoint_all", "checkmate_ilp", "checkmate_approx"} <= strategies
        presets = client.presets()
        assert {p["key"] for p in presets["presets"]} >= {"unet", "vgg16"}

    def test_jobs_listing_filter(self, client, chain5_train):
        handle = client.submit_solve(graph=chain5_train, strategy="checkpoint_all")
        client.wait(handle["job_id"], timeout=30)
        assert any(j["id"] == handle["job_id"] for j in client.jobs("done"))
        assert client.jobs("queued") == []
        with pytest.raises(ServeAPIError):
            client.jobs("levitating")


class TestParetoApi:
    """The bisection frontier endpoint plus the warm-start observability it
    feeds: ``/v1/pareto`` round trip, and the ``/v1/metrics`` warm counters
    moving when a descending-budget sweep actually reuses incumbents."""

    def test_pareto_job_round_trip(self, client, chain5_train):
        handle = client.submit_pareto(graph=chain5_train,
                                      strategy="checkmate_ilp")
        status = client.wait(handle["job_id"], timeout=60)
        assert status["state"] == "done"
        front = client.result(handle["job_id"])["front"]
        assert front["strategy"] == "checkmate_ilp"
        assert front["num_points"] == len(front["points"]) >= 2
        assert front["solver_calls"] >= 1
        budgets = [p["budget"] for p in front["points"]]
        assert budgets == sorted(budgets)
        metrics = client.metrics()
        assert metrics["pareto_latency"]["count"] == 1
        # Whole-frontier traces must not pollute the per-solve quantiles.
        assert metrics["solve_latency"]["count"] == 0

    def test_pareto_deduplicates_identical_submissions(self, client, chain5_train):
        # wait_s=None: the second submit must land while the first is live.
        first = client.submit_pareto(graph=chain5_train, strategy="checkmate_ilp",
                                     wait_s=None)
        second = client.submit_pareto(graph=chain5_train, strategy="checkmate_ilp",
                                      wait_s=None)
        client.wait(first["job_id"], timeout=60)
        client.wait(second["job_id"], timeout=60)
        assert (client.result(first["job_id"])["front"]
                == client.result(second["job_id"])["front"])

    def test_pareto_validates_payload(self, client, chain5_train):
        with pytest.raises(ServeAPIError) as err:
            client.submit_pareto(graph=chain5_train, strategy="levitating")
        assert err.value.status in (400, 404)
        with pytest.raises(ServeAPIError) as err:
            client.submit_pareto(graph=chain5_train, strategy="checkmate_ilp",
                                 resolution=-4.0)
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            client.submit_pareto(graph=chain5_train, strategy="min_r")
        assert err.value.status == 400  # no budget knob to trace

    def test_warm_counters_move_in_metrics(self, client, chain5_train):
        # Below the no-recompute peak, where cells reach the solver and the
        # upper cell's schedule seeds the lower one.
        hi = no_recompute_peak(chain5_train) - 0.5
        handle = client.submit_sweep(
            graph=chain5_train,
            cells=[("checkmate_ilp", hi), ("checkmate_ilp", hi - 0.5)])
        assert client.wait(handle["job_id"], timeout=60)["state"] == "done"
        service = client.metrics()["service"]
        for key in ("warm_seeds", "incumbent_prunes", "bound_skips",
                    "infeasible_shortcuts"):
            assert key in service
        assert service["warm_seeds"] >= 1
        assert service["incumbent_prunes"] + service["bound_skips"] >= 1

    def test_certificate_counters_in_metrics(self, client, chain5_train):
        peak = no_recompute_peak(chain5_train)
        handle = client.submit_sweep(
            graph=chain5_train,
            cells=[("checkmate_ilp", peak + 1), ("checkmate_ilp", peak),
                   ("checkmate_ilp", peak - 1)])
        assert client.wait(handle["job_id"], timeout=60)["state"] == "done"
        assert client.metrics()["service"]["certificates"] == {
            "liveness": 2, "lp-gap": 0}
        text = client.metrics_prometheus()
        validate_prometheus_text(text)
        assert "# TYPE repro_service_certificates_total counter" in text
        assert 'repro_service_certificates_total{kind="liveness"} 2' in text
        assert 'repro_service_certificates_total{kind="lp-gap"} 0' in text
        # One series per count: the JSON payload's copy is not re-scraped.
        assert "repro_service_certificates_liveness" not in text
        assert "repro_service_certificates_lp_gap" not in text

    def test_strategies_advertise_warm_capability(self, client):
        by_key = {e["key"]: e for e in client.strategies()}
        assert by_key["checkmate_ilp"]["warm_start_capable"] is True
        assert by_key["checkpoint_all"]["warm_start_capable"] is False


class TestSingleFlightE2E:
    """Acceptance: 8 concurrent duplicate U-Net submissions -> 1 solver call."""

    def test_concurrent_duplicates_share_one_solve(self):
        registry, gate, counter = counting_registry("checkmate_approx")
        service = SolveService(registry=registry, cache=PlanCache())
        with SolveServer(port=0, service=service, num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=60)
            # Occupy the single worker so all 8 duplicates pile up queued.
            client.submit_solve(preset="resnet_tiny", strategy="gated",
                                wait_s=None)
            assert gate.started.wait(30)

            budget = 2 * 2**30
            handles, errors = [], []

            def submit():
                try:
                    handles.append(client.submit_solve(
                        preset="unet", strategy="checkmate_approx",
                        budget=budget, options={"seed": 0}, wait_s=None))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(handles) == 8
            # All 8 submissions landed while the flight was queued: exactly
            # one leader, seven followers.
            assert sum(h["deduplicated"] for h in handles) == 7

            gate.release.set()
            payloads = []
            for h in handles:
                status = client.wait(h["job_id"], timeout=120)
                assert status["state"] == "done"
                payloads.append(client.result(h["job_id"])["result"])

            # Exactly one solver invocation for all 8 jobs...
            assert counter["calls"] == 1
            # ...and byte-identical results.
            assert all(p == payloads[0] for p in payloads[1:])
            assert payloads[0]["feasible"] is True

            # A ninth, *sequential* identical submission is served by the
            # plan cache: still no extra solver call, and /v1/metrics shows
            # the cache hit.
            ninth = client.submit_solve(preset="unet",
                                        strategy="checkmate_approx",
                                        budget=budget, options={"seed": 0})
            assert client.wait(ninth["job_id"], timeout=60)["state"] == "done"
            assert counter["calls"] == 1

            metrics = client.metrics()
            assert metrics["jobs"]["deduplicated"] == 7
            cache = metrics["service"]["cache"]
            assert cache["hits"] >= 1
            assert cache["hit_rate"] > 0
            assert metrics["solve_latency"]["p50_s"] is not None
            assert metrics["solve_latency"]["p95_s"] is not None
            # The keys ``repro serve-status``, CI's server smoke and
            # examples/serve_and_submit.py read.
            assert {"workers", "queue_depth", "running", "jobs"} <= set(metrics)
            assert metrics["jobs"]["done"] >= 1
            assert metrics["service"]["solver_calls"] >= 1
            assert {"entries", "hits", "misses", "evictions",
                    "hit_rate"} <= set(cache)
            assert set(metrics["solve_latency"]) == {
                "count", "total_s", "p50_s", "p95_s", "p99_s"}
            assert metrics["solve_latency"]["count"] >= 1
            families = validate_prometheus_text(client.metrics_prometheus())
            assert "repro_solve_latency_p50_s" in families
            assert "repro_service_race_wins" in families


class TestLatencyHistogram:
    def test_summary_reports_histogram_quantiles(self):
        queue = JobQueue(SolveService(), num_workers=1)
        assert queue.metrics()["solve_latency"] == {
            "count": 0, "total_s": 0.0,
            "p50_s": None, "p95_s": None, "p99_s": None}
        for v in range(1, 101):
            queue.latency.observe(v / 1000.0, key="solve_latency")
        summary = queue.metrics()["solve_latency"]
        assert summary["count"] == 100
        assert summary["total_s"] == pytest.approx(5.05)
        for q in (50, 95, 99):
            assert summary[f"p{q}_s"] == pytest.approx(
                queue.latency.quantile(q / 100, key="solve_latency"))
        # True p50 is 0.050, in the (0.025, 0.05] bucket.
        assert 0.025 <= summary["p50_s"] <= 0.05
        assert queue.metrics()["pareto_latency"]["count"] == 0


# --------------------------------------------------------------------------- #
# One round trip per solve: keep-alive, inline settle, long-poll
# --------------------------------------------------------------------------- #
def _raw_post(server, path: str, payload: dict):
    """One POST on a fresh raw connection: ``(status, decoded body)``."""
    import http.client
    import json as json_mod
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", path, body=json_mod.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json_mod.loads(response.read())
    finally:
        conn.close()


def _count_requests(monkeypatch):
    """Count ``HTTPConnection.request`` calls (one per HTTP exchange)."""
    import http.client
    calls = []
    original = http.client.HTTPConnection.request

    def counted(self, method, url, *args, **kwargs):
        calls.append((method, url))
        return original(self, method, url, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", counted)
    return calls


class TestKeepAlive:
    def test_listen_backlog_takes_a_burst_of_connections(self):
        """A burst of connects queues in the listen backlog until the
        server accepts: here it never does, so every connect that succeeds
        sits in the backlog."""
        server = SolveServer(port=0)  # bound and listening, never started
        connected = []
        try:
            for _ in range(32):
                try:
                    connected.append(socket.create_connection(
                        (server.host, server.port), timeout=0.25))
                except OSError:
                    pass
        finally:
            for sock in connected:
                sock.close()
            server.stop()
        assert len(connected) == 32

    def test_sequential_posts_on_one_connection_do_not_stall(self, server,
                                                              chain5_train):
        """A kept-alive connection must not pay Nagle plus delayed-ACK
        (about 40 ms) per response: the handler sets TCP_NODELAY."""
        import http.client
        import json as json_mod
        import time

        from repro.utils.serialization import graph_to_wire

        body = json_mod.dumps({"graph": graph_to_wire(chain5_train)})
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/v1/lint", body=body)  # warm up the route
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/v1/lint", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert json_mod.loads(response.read())["ok"] is True
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive POSTs took {elapsed:.3f}s"

    def test_idle_connection_closed_by_server_reconnects(self, monkeypatch):
        import time

        from repro.server import http as server_http

        monkeypatch.setattr(server_http._Handler, "timeout", 0.2)
        with SolveServer(port=0, num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            assert client.healthz()["status"] == "ok"
            first = client._connection().sock
            time.sleep(0.5)  # the server drops the idle connection
            assert client.healthz()["status"] == "ok"
            assert client._connection().sock is not first

    def test_unreachable_server_is_status_zero(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=5,
                             max_retries=0)
        with pytest.raises(ServeAPIError) as err:
            client.healthz()
        assert err.value.status == 0
        assert "cannot reach" in err.value.message

    def test_threads_sharing_a_client_use_their_own_connections(
            self, client, chain5_train):
        budget = ample_budget(chain5_train)
        connections, results, errors = {}, {}, []

        def solve(i):
            try:
                handle = client.submit_solve(graph=chain5_train,
                                             strategy="checkpoint_all",
                                             budget=budget + i)
                assert client.wait(handle["job_id"])["state"] == "done"
                results[i] = client.result(handle["job_id"])["result"]
                connections[i] = client._connection()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len({id(c) for c in connections.values()}) == 4
        for i, result in results.items():
            assert result["feasible"] is True
            assert result["budget"] == budget + i

    def test_stop_during_inline_wait_answers_the_waiter(self, chain5_train,
                                                        diamond_train):
        import time

        registry, gate, _ = counting_registry()
        srv = SolveServer(port=0, service=SolveService(registry=registry),
                          num_workers=1).start()
        try:
            srv.queue.submit_solve(chain5_train, "gated")
            assert gate.started.wait(30)
            client = ServeClient(srv.url, timeout=30)
            answer = {}

            def submit():
                try:
                    answer["body"] = client.submit_solve(
                        graph=diamond_train, strategy="checkpoint_all",
                        wait_s=10)
                except Exception as exc:  # pragma: no cover - diagnostic
                    answer["error"] = exc

            waiter = threading.Thread(target=submit)
            waiter.start()
            deadline = time.monotonic() + 10
            while srv.queue.metrics()["queue_depth"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stopper = threading.Thread(target=srv.stop)
            start = time.monotonic()
            stopper.start()
            waiter.join(5)
            assert not waiter.is_alive(), "inline waiter hung on stop()"
            assert "error" not in answer, answer
            assert answer["body"]["job"]["state"] == "cancelled"
            gate.release.set()
            stopper.join(10)
            assert not stopper.is_alive()
            assert time.monotonic() - start < 5
        finally:
            gate.release.set()
            srv.stop()


class TestSettledJobs:
    def test_settled_job_pins_no_uploaded_graph(self, chain5_train,
                                                monkeypatch):
        """A settled job keeps only its encoded body: without a plan cache,
        the graph a request uploaded is freed once its job settles, and the
        job still answers ``/result``."""
        from repro.server import http

        uploaded = []
        decode = http.graph_from_wire

        def tracked(payload):
            graph = decode(payload)
            uploaded.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(http, "graph_from_wire", tracked)
        with SolveServer(port=0, service=SolveService(cache=None),
                         num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            handle = client.submit_solve(
                graph=chain5_train, strategy="chen_sqrt_n",
                budget=ample_budget(chain5_train), wait_s=None)
            assert client.wait(handle["job_id"], timeout=30)["state"] == "done"
            assert len(uploaded) == 1
            # The queue thread lets go of the flight just after settling it.
            deadline = time.monotonic() + 10
            while uploaded[0]() is not None and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.01)
            assert uploaded[0]() is None
            body = client.result(handle["job_id"])
            assert body["result"]["feasible"] is True
            assert body["result"]["strategy"] == "chen-sqrt(n)"


class TestInlineSettle:
    def test_cached_cell_settles_in_one_exchange(self, server, client,
                                                 chain5_train, monkeypatch):
        from repro.utils.serialization import graph_to_wire

        budget = ample_budget(chain5_train)
        payload = {"graph": graph_to_wire(chain5_train),
                   "strategy": "checkpoint_all", "budget": budget}
        client.wait(client.submit_solve(graph=chain5_train,
                                        strategy="checkpoint_all",
                                        budget=budget)["job_id"])
        status, body = _raw_post(server, "/v1/solve", dict(payload, wait_s=5))
        assert status == 200
        assert body["job"]["state"] == "done"
        assert body["state"] == "done"
        assert body["result"]["feasible"] is True
        # Without wait_s the answer is the 202 handle, as before.
        status, body = _raw_post(server, "/v1/solve", payload)
        assert status == 202
        assert "job" not in body and "result" not in body

        calls = _count_requests(monkeypatch)
        handle = client.submit_solve(graph=chain5_train,
                                     strategy="checkpoint_all", budget=budget)
        assert client.wait(handle["job_id"])["state"] == "done"
        result = client.result(handle["job_id"])
        assert result["result"]["feasible"] is True
        assert result["job"]["id"] == handle["job_id"]
        assert len(calls) == 1
        # The settled result is handed out once; again, it comes from the
        # server, identical.
        assert client.result(handle["job_id"]) == result
        assert len(calls) == 2

    def test_job_outlasting_wait_s_is_202_then_long_polled(self, chain5_train,
                                                           monkeypatch):
        registry, gate, _ = counting_registry()
        with SolveServer(port=0, service=SolveService(registry=registry),
                         num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            handle = client.submit_solve(graph=chain5_train, strategy="gated",
                                         wait_s=0.2)
            assert "job" not in handle
            assert handle["state"] in ("queued", "running")
            calls = _count_requests(monkeypatch)
            threading.Timer(0.3, gate.release.set).start()
            status = client.wait(handle["job_id"], timeout=30)
            assert status["state"] == "done"
            # One long-poll, no sleep loop.
            assert len(calls) == 1
            assert "wait_s=" in calls[0][1]
            assert client.result(handle["job_id"])["result"]["feasible"]
            assert calls[-1] == ("GET", f"/v1/jobs/{handle['job_id']}/result")

    def test_job_failing_inline(self, chain5_train, monkeypatch):
        with SolveServer(port=0,
                         service=SolveService(registry=failing_registry(),
                                              cache=None),
                         num_workers=1) as srv:
            client = ServeClient(srv.url, timeout=30)
            handle = client.submit_solve(graph=chain5_train, strategy="explode")
            assert handle["job"]["state"] == "failed"
            assert "result" not in handle
            calls = _count_requests(monkeypatch)
            status = client.wait(handle["job_id"])
            assert status["state"] == "failed"
            assert "synthetic solver crash" in status["error"]
            assert calls == []
            with pytest.raises(ServeAPIError) as err:
                client.result(handle["job_id"])
            assert err.value.status == 409

    def test_settled_bodies_stay_bounded(self, client, chain5_train,
                                         monkeypatch):
        from repro.server import client as client_module

        monkeypatch.setattr(client_module, "_SETTLED_MAX", 3)
        budget = ample_budget(chain5_train)
        handles = [client.submit_solve(graph=chain5_train,
                                       strategy="checkpoint_all",
                                       budget=budget + i) for i in range(6)]
        assert all("job" in h for h in handles)
        assert len(client._settled) == 3
        # An evicted job still answers, from the server.
        assert client.wait(handles[0]["job_id"])["state"] == "done"
        assert client.result(handles[0]["job_id"])["result"]["feasible"]

    def test_long_poll_rejects_bad_wait(self, client, chain5_train):
        handle = client.submit_solve(graph=chain5_train,
                                     strategy="checkpoint_all")
        for bad in ("-1", "0", "nan", "inf", "soon"):
            with pytest.raises(ServeAPIError) as err:
                client._request("GET", f"/v1/jobs/{handle['job_id']}?wait_s={bad}")
            assert err.value.status == 400
