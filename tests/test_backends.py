"""Tests for the pluggable worker backends, admission control, deadlines,
the shared cross-process plan cache, and client retry.

The process-pool tests spawn real worker processes (spawn context: each
worker pays the interpreter + numpy/scipy import cost, ~1s on a small
machine), so backends are module-scoped where possible and every test
asserts on *deltas* of the cumulative backend stats.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines import solve_checkpoint_all
from repro.core import DFGraph, ScheduleMatrices, schedule, simulator
from repro.experiments import build_training_graph
from repro.server import JobQueue, JobState, ServeAPIError, ServeClient, SolveServer
from repro.server import backends
from repro.server.backends import (
    ProcessBackend,
    SolveWork,
    ThreadBackend,
    make_backend,
)
from repro.server.ops import SweepWork
from repro.server.jobs import QueueFullError
from repro.service import (
    PlanCache,
    SolverOptions,
    SolverSpec,
    SolveService,
    SweepCell,
    default_registry,
    graph_content_hash,
    hashing,
)
from repro.service.solve import CERTIFICATE_KINDS
from repro.solvers.common import build_scheduled_result
from repro.utils import serialization
from repro.utils.serialization import (
    OPTIONS_FORMAT,
    options_from_wire,
    options_to_wire,
    result_to_wire,
    schedule_to_json,
)

from helpers import ample_budget, below_liveness_budget, tight_budget


FULL_OPTIONS = SolverOptions(
    time_limit_s=12.5,
    lp_time_limit_s=3.25,
    mip_gap=0.015,
    allowance=0.9,
    num_samples=3,
    seed=7,
    max_nodes=500,
    checkpoints=(4, 1, 2),
    deadline_s=2.5,
    entrants=("approx_fixed_half", "checkmate_ilp"),
)


def _never() -> bool:
    return False


# --------------------------------------------------------------------------- #
# Options wire format
# --------------------------------------------------------------------------- #
class TestOptionsWire:
    def test_round_trip_every_field(self):
        # Guard against the dataclass growing a field the wire format forgets.
        wire = options_to_wire(FULL_OPTIONS)
        assert wire["format"] == OPTIONS_FORMAT
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(SolverOptions)}
        assert set(wire["fields"]) == field_names
        restored = options_from_wire(wire)
        assert restored == FULL_OPTIONS
        assert isinstance(restored.checkpoints, tuple)

    def test_none_fields_omitted(self):
        wire = options_to_wire(SolverOptions(seed=3))
        assert wire["fields"] == {"seed": 3}
        assert options_from_wire(wire) == SolverOptions(seed=3)

    def test_rejects_unknown_fields_and_bad_format(self):
        with pytest.raises(ValueError):
            options_from_wire({"format": OPTIONS_FORMAT,
                               "fields": {"warp_factor": 9}})
        with pytest.raises(ValueError):
            options_from_wire({"format": "something/else", "fields": {}})

    def test_json_safe(self):
        wire = options_to_wire(FULL_OPTIONS)
        assert options_from_wire(json.loads(json.dumps(wire))) == FULL_OPTIONS


# --------------------------------------------------------------------------- #
# Process backend (module-scoped pool: spawn cost is paid once)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("plans"))


@pytest.fixture(scope="module")
def process_queue(shared_cache_dir):
    service = SolveService(cache=PlanCache(max_entries=64,
                                           cache_dir=shared_cache_dir))
    queue = JobQueue(service, num_workers=2, backend="process")
    queue.start()
    yield queue
    queue.shutdown(wait=True, drain=False)


@pytest.fixture(scope="module")
def mlp_train():
    return build_training_graph("linear_mlp", scale="ci")


def _worker_solver_calls(backend) -> int:
    # Totals sum what workers reported: empty before the first report.
    return backend.stats()["worker_totals"].get("solver_calls", 0)


class TestProcessBackend:
    def test_options_round_trip_through_worker_process(self, process_queue,
                                                       chain5_train):
        """Every SolverOptions field survives a real pool round trip: the
        worker decodes the wire options and echoes them back re-encoded."""
        backend = process_queue.backend
        work = SolveWork(chain5_train, "checkpoint_all",
                         float(ample_budget(chain5_train)), FULL_OPTIONS)
        response = backend._ship(backend._encode(work), _never)
        assert response["ok"], response.get("error")
        assert response["options_echo"] == options_to_wire(FULL_OPTIONS)
        assert options_from_wire(response["options_echo"]) == FULL_OPTIONS

    def test_duplicate_submissions_one_solver_call_across_processes(
            self, process_queue, mlp_train):
        """8 identical submissions through the process backend -> exactly one
        solver invocation across all worker processes (single-flighting at the
        queue plus the shared cache tiers below it)."""
        before = _worker_solver_calls(process_queue.backend)
        budget = float(tight_budget(mlp_train, 0.61))
        jobs = [process_queue.submit_solve(mlp_train, "checkmate_ilp", budget)
                for _ in range(8)]
        for job in jobs:
            assert job.wait(120)
            assert job.state is JobState.DONE, job.error
        costs = {job.result["compute_cost"] for job in jobs}
        assert len(costs) == 1
        after = _worker_solver_calls(process_queue.backend)
        assert after - before == 1

    def test_repeat_submission_answers_from_parent_cache(self, process_queue,
                                                         mlp_train):
        budget = float(tight_budget(mlp_train, 0.63))
        first = process_queue.submit_solve(mlp_train, "checkmate_ilp", budget)
        assert first.wait(120) and first.state is JobState.DONE
        shipped = process_queue.backend.stats()["tasks_shipped"]
        hits = process_queue.service.statistics()["cache_hits"]
        again = process_queue.submit_solve(mlp_train, "checkmate_ilp", budget)
        assert again.wait(60) and again.state is JobState.DONE
        assert process_queue.backend.stats()["tasks_shipped"] == shipped
        # The parent-cache tier counts through the service's counter.
        assert process_queue.service.statistics()["cache_hits"] == hits + 1
        assert again.result["compute_cost"] == first.result["compute_cost"]

    def test_byte_identical_schedule_thread_vs_process(self, process_queue,
                                                       mlp_train):
        """The same cell solved in-process and in a worker process must yield
        byte-identical schedule JSON (acceptance criterion)."""
        budget = float(tight_budget(mlp_train, 0.65))
        work = SolveWork(mlp_train, "checkmate_ilp", budget, None)
        local = ThreadBackend(SolveService(cache=None)).run(work, _never)
        remote = process_queue.backend.run(work, _never)
        assert local.feasible and remote.feasible
        assert schedule_to_json(mlp_train, local.matrices, strategy="checkmate_ilp") \
            == schedule_to_json(mlp_train, remote.matrices, strategy="checkmate_ilp")

    def test_unpicklable_meta_fails_one_flight_and_pool_serves_on(
            self, process_queue, chain5_train):
        """The pool ships the graph object: a graph whose ``meta`` does not
        pickle fails its own flight cleanly, and the next one is served."""
        graph = chain5_train
        graph.meta["lock"] = threading.Lock()
        budget = float(ample_budget(graph))
        job = process_queue.submit_solve(graph, "checkpoint_all", budget)
        assert job.wait(60)
        assert job.state is JobState.FAILED
        assert "pickle" in job.error
        del graph.meta["lock"]
        retry = process_queue.submit_solve(graph, "checkpoint_all", budget)
        assert retry.wait(60)
        assert retry.state is JobState.DONE, retry.error

    def test_metrics_expose_backend_and_workers(self, process_queue,
                                                mlp_train):
        # Ship a solve of its own (a budget no other test uses): the test
        # must not rely on earlier tests having used the pool.
        job = process_queue.submit_solve(
            mlp_train, "checkpoint_all", float(ample_budget(mlp_train)) + 13.0)
        assert job.wait(120)
        assert job.state is JobState.DONE, job.error
        metrics = process_queue.metrics()
        backend = metrics["backend"]
        assert backend["name"] == "process"
        assert backend["pool_size"] == 2
        assert backend["tasks_shipped"] >= 1
        # Every counter a worker ships is summed, certificates per kind.
        totals = backend["worker_totals"]
        assert set(totals) == {"solver_calls", "cache_hits", "cache_misses",
                               "warm_seeds", "disk_hits", "certificates"}
        assert set(totals["certificates"]) == set(CERTIFICATE_KINDS)
        workers = backend["workers"].values()
        for key in ("solver_calls", "cache_misses", "warm_seeds"):
            assert totals[key] == sum(stats[key] for stats in workers)
        for kind in CERTIFICATE_KINDS:
            assert totals["certificates"][kind] == sum(
                stats["certificates"][kind] for stats in workers)

    def test_execute_falls_back_to_local(self, process_queue):
        """Execute jobs (results carry live tensors: no wire format) run on
        the parent service, counted as local fallbacks."""
        graph = build_training_graph("linear_mlp", scale="ci")
        before = process_queue.backend.stats()["local_fallbacks"]
        job = process_queue.submit_execute(graph, "checkpoint_all",
                                           float(ample_budget(graph)))
        assert job.wait(120)
        assert job.state is JobState.DONE, job.error
        assert process_queue.backend.stats()["local_fallbacks"] == before + 1

    def test_make_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            make_backend("fibers", SolveService())


def _body_bytes(wire: dict) -> str:
    """An encoded result as bytes, minus its wall-clock ``solve_time_s``."""
    return json.dumps(dict(wire, solve_time_s=None), sort_keys=True)


class TestTrustedResults:
    """Results cross from the worker by pickle: validated and encoded once
    in the worker, trusted by the parent, equal to the thread backend's."""

    def test_thread_and_process_agree_on_a_solve_and_a_sweep(
            self, process_queue, mlp_train):
        solve = SolveWork(mlp_train, "checkmate_ilp",
                          float(below_liveness_budget(mlp_train, 0.55)))
        sweep = SweepWork(mlp_train, (
            SweepCell("checkmate_ilp",
                      float(below_liveness_budget(mlp_train, 0.45))),
            SweepCell("chen_sqrt_n", float(ample_budget(mlp_train)) + 7.0)))
        thread = ThreadBackend(SolveService(cache=None))
        for work in (solve, sweep):
            local = thread.run(work, _never)
            remote = process_queue.backend.run(work, _never)
            if isinstance(work, SolveWork):
                local, remote = [local], [remote]
            assert len(local) == len(remote)
            for a, b in zip(local, remote):
                assert b.graph is mlp_train
                assert (a.matrices.R == b.matrices.R).all()
                assert (a.matrices.S == b.matrices.S).all()
                assert (a.compute_cost, a.peak_memory, a.solver_status,
                        a.feasible) == (b.compute_cost, b.peak_memory,
                                        b.solver_status, b.feasible)
                assert _body_bytes(result_to_wire(a)) \
                    == _body_bytes(result_to_wire(b))

    def test_parent_neither_decodes_nor_revalidates(self, process_queue,
                                                    mlp_train, monkeypatch):
        """A shipped solve costs the parent no ``result_from_wire``, no
        ``validate_correctness_constraints`` and no ``schedule_peak_memory``:
        the worker already built (and validated) the result."""
        calls = {"result_from_wire": 0, "validate_correctness_constraints": 0,
                 "schedule_peak_memory": 0}
        for name, module in (("result_from_wire", serialization),
                             ("validate_correctness_constraints", schedule),
                             ("schedule_peak_memory", simulator)):
            original = getattr(module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # Every module that bound the function by name.
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, "__dict__", {}).get(name) is original):
                    monkeypatch.setattr(mod, name, spy)
        shipped = process_queue.backend.stats()["tasks_shipped"]
        work = SolveWork(mlp_train, "checkmate_ilp",
                         float(below_liveness_budget(mlp_train, 0.35)))
        result = process_queue.backend.run(work, _never)
        assert process_queue.backend.stats()["tasks_shipped"] == shipped + 1
        assert result.feasible and result.graph is mlp_train
        assert calls == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("returned, error", [
        # Built by build_scheduled_result, which rejects it in the worker.
        (lambda graph: build_scheduled_result(
            "invalid", graph, ScheduleMatrices(
                np.zeros((graph.size, graph.size), np.uint8),
                np.zeros((graph.size, graph.size), np.uint8))),
         "incorrect schedule"),
        # A valid result that does not pickle back to the parent.
        (lambda graph: dataclasses.replace(
            solve_checkpoint_all(graph, None), extra={"lock": threading.Lock()}),
         "pickle"),
    ], ids=["invalid-schedule", "unpicklable-result"])
    def test_worker_side_failures_come_back_structured(
            self, returned, error, chain5_train, monkeypatch):
        registry = default_registry()
        registry.register(SolverSpec(
            key="faulty", description="test fixture",
            solve=lambda graph, budget=None, **kwargs: returned(graph)))
        monkeypatch.setattr(backends, "_WORKER_SERVICE",
                            SolveService(registry=registry, cache=None))
        backend = ProcessBackend(SolveService(registry=registry, cache=None))
        payload = backend._encode(SolveWork(chain5_train, "faulty"))
        response = backends._run_task(pickle.loads(pickle.dumps(payload)))
        assert response["ok"] is False
        assert error in response["error"]["message"]
        pickle.loads(pickle.dumps(response))  # crosses back to the parent


class TestHashOnce:
    """The task payload carries the graph object, and with it the parent's
    content-hash memo: the worker's plan-cache and lint lookups are memo
    hits, never a second canonical walk."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count full canonical walks and all hash calls, and give the
        in-process worker a service with a plan cache (so ``_run_task``
        runs the plan-cache lookup as a pool worker does)."""
        counts = {"walks": 0, "hashes": 0}
        walk, snapshot = hashing._canonical_meta, hashing._meta_snapshot

        def counted_walk(value):
            counts["walks"] += 1
            return walk(value)

        def counted_snapshot(graph):
            counts["hashes"] += 1
            return snapshot(graph)

        monkeypatch.setattr(hashing, "_canonical_meta", counted_walk)
        monkeypatch.setattr(hashing, "_meta_snapshot", counted_snapshot)
        monkeypatch.setattr(backends, "_WORKER_SERVICE",
                            SolveService(cache=PlanCache(max_entries=4)))
        return counts

    @staticmethod
    def _round_trip(graph):
        """Encode, pickle as the executor does, and run the task."""
        backend = ProcessBackend(SolveService(cache=None))
        work = SolveWork(graph, "chen_sqrt_n", float(ample_budget(graph)))
        payload = pickle.loads(pickle.dumps(backend._encode(work)))
        assert payload["graph"] is not graph
        return payload, backends._run_task(payload)

    def test_worker_does_no_walk_for_a_parent_hashed_graph(self, counted):
        graph = build_training_graph("linear_cnn", batch_size=3)
        digest = graph_content_hash(graph)
        counted.update(walks=0, hashes=0)
        payload, response = self._round_trip(graph)
        assert response["ok"], response.get("error")
        assert counted["hashes"] >= 2  # plan-cache lookup and lint
        assert counted["walks"] == 0
        assert graph_content_hash(payload["graph"]) == digest

    def test_worker_walks_once_for_an_unhashed_graph(self, counted):
        graph_content_hash(build_training_graph("linear_cnn", batch_size=5))
        one_walk = counted["walks"]
        assert one_walk > 0
        counted.update(walks=0, hashes=0)
        _, response = self._round_trip(
            build_training_graph("linear_cnn", batch_size=5))
        assert response["ok"], response.get("error")
        assert counted["hashes"] >= 2
        assert counted["walks"] == one_walk


class TestSharedDiskCache:
    def test_worker_disk_hit_after_other_process_solved(self, shared_cache_dir,
                                                        chain5_train):
        """Worker-to-worker sharing: a fresh worker process answers from the
        shared disk tier without invoking its solver."""
        budget = float(ample_budget(chain5_train))
        work = SolveWork(chain5_train, "checkmate_ilp", budget, None)

        def fresh_backend():
            service = SolveService(cache=PlanCache(max_entries=4,
                                                   cache_dir=shared_cache_dir))
            return ProcessBackend(service, num_workers=1).start()

        first = fresh_backend()
        try:
            result = first.run(work, _never)
            assert result.feasible
            assert _worker_solver_calls(first) == 1
        finally:
            first.shutdown()

        second = fresh_backend()
        try:
            # Bypass the parent cache tiers: ship straight to the worker so
            # the hit we observe is the *worker's* disk-store lookup.
            response = second._ship(second._encode(work), _never)
            assert response["ok"], response.get("error")
            assert response["stats"]["solver_calls"] == 0
            assert response["stats"]["disk_hits"] == 1
        finally:
            second.shutdown()


class TestWorkerCrash:
    def test_crash_fails_job_and_pool_recovers(self, mlp_train):
        """SIGKILL the worker mid-solve: the flight fails with a structured
        worker-crash payload, the pool is rebuilt, and the next solve
        succeeds -- the queue never hangs."""
        service = SolveService(cache=None)
        backend = ProcessBackend(service, num_workers=1)
        with JobQueue(service, num_workers=1, backend=backend) as queue:
            (pid,) = backend.worker_pids()
            # A solve slow enough to be running when the signal lands.
            job = queue.submit_solve(mlp_train, "checkmate_bnb",
                                     float(tight_budget(mlp_train, 0.5)))
            deadline = time.monotonic() + 30
            while job.state is JobState.QUEUED and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # let the task reach the worker
            os.kill(pid, signal.SIGKILL)
            assert job.wait(60)
            assert job.state is JobState.FAILED
            assert job.error_info is not None
            assert job.error_info["type"] == "worker-crash"
            assert "worker process died" in job.error
            stats = backend.stats()
            assert stats["crashes"] >= 1
            assert stats["pool_rebuilds"] >= 1

            retry = queue.submit_solve(mlp_train, "checkpoint_all",
                                       float(ample_budget(mlp_train)))
            assert retry.wait(120)
            assert retry.state is JobState.DONE, retry.error

    def test_worker_exception_comes_back_structured(self, process_queue,
                                                    chain5_train):
        """A worker-side solver exception fails the job with the remote
        type/message, not a pickling error and not a hang."""
        # Built in-process, the graph skips the wire check; submission
        # checks options, not meta, so only the worker's solve trips on it.
        broken = DFGraph(nodes=chain5_train.nodes, deps=chain5_train.deps,
                         meta=dict(chain5_train.meta, n_forward="abc"))
        job = process_queue.submit_solve(broken, "checkpoint_all")
        assert job.wait(60)
        assert job.state is JobState.FAILED
        assert job.error_info is not None
        assert job.error_info["type"] not in (None, "worker-crash")
        assert job.error


# --------------------------------------------------------------------------- #
# Admission control + deadlines (thread backend: gates work in-process)
# --------------------------------------------------------------------------- #
def gated_registry():
    registry = default_registry()
    release = threading.Event()

    def gated(graph, budget=None, **kwargs):
        assert release.wait(30), "gate was never released"
        return solve_checkpoint_all(graph, budget)

    registry.register(SolverSpec(
        key="gated", description="blocks until released (test fixture)",
        solve=gated))
    return registry, release


class TestAdmissionControl:
    def test_sheds_beyond_max_queue_depth(self, chain5_train):
        registry, release = gated_registry()
        queue = JobQueue(SolveService(registry=registry, cache=None),
                         num_workers=1, max_queue_depth=1)
        with queue:
            running = queue.submit_solve(chain5_train, "gated", 101.0)
            deadline = time.monotonic() + 10
            while running.state is JobState.QUEUED and time.monotonic() < deadline:
                time.sleep(0.01)
            queued = queue.submit_solve(chain5_train, "gated", 102.0)
            with pytest.raises(QueueFullError) as excinfo:
                queue.submit_solve(chain5_train, "gated", 103.0)
            assert excinfo.value.retry_after_s >= 1.0
            assert excinfo.value.limit == 1
            # Joining an existing flight costs nothing: never shed.
            joiner = queue.submit_solve(chain5_train, "gated", 102.0)
            release.set()
            for job in (running, queued, joiner):
                assert job.wait(30)
                assert job.state is JobState.DONE
            metrics = queue.metrics()
            assert metrics["jobs"]["shed"] == 1
            assert metrics["max_queue_depth"] == 1

    def test_http_503_with_retry_after(self, chain5_train):
        registry, release = gated_registry()
        queue = JobQueue(SolveService(registry=registry, cache=None),
                         num_workers=1, max_queue_depth=1)
        server = SolveServer(port=0, queue=queue)
        server.start()
        try:
            client = ServeClient(server.url, max_retries=0)
            client.submit_solve(strategy="gated", graph=chain5_train, budget=201.0,
                                wait_s=None)
            time.sleep(0.2)  # let the first flight start running
            client.submit_solve(strategy="gated", graph=chain5_train, budget=202.0,
                                wait_s=None)
            with pytest.raises(ServeAPIError) as excinfo:
                client.submit_solve(strategy="gated", graph=chain5_train,
                                    budget=203.0)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
        finally:
            release.set()
            server.stop()

    def test_deadline_expires_queued_job(self, chain5_train):
        """A job whose deadline passes while it waits behind a long solve is
        expired when the worker reaches it -- before any solver time is spent
        on it -- not run to completion late."""
        registry, release = gated_registry()
        queue = JobQueue(SolveService(registry=registry, cache=None),
                         num_workers=1)
        with queue:
            blocker = queue.submit_solve(chain5_train, "gated", 301.0)
            doomed = queue.submit_solve(chain5_train, "gated", 302.0,
                                        deadline_s=0.05)
            time.sleep(0.1)  # deadline passes while doomed is still queued
            release.set()
            assert doomed.wait(30)
            assert doomed.state is JobState.FAILED
            assert doomed.error_info["type"] == "deadline-exceeded"
            assert doomed.error_info["waited_s"] >= 0.05
            assert "deadline exceeded" in doomed.error
            assert blocker.wait(30)
            assert blocker.state is JobState.DONE
            assert queue.metrics()["jobs"]["expired"] == 1

    def test_default_deadline_applies(self, chain5_train):
        registry, release = gated_registry()
        queue = JobQueue(SolveService(registry=registry, cache=None),
                         num_workers=1, default_deadline_s=600.0)
        with queue:
            job = queue.submit_solve(chain5_train, "gated", 304.0)
            assert job.deadline_at is not None
            assert job.to_dict()["deadline_at"] == job.deadline_at
            release.set()
            assert job.wait(30)

    def test_validation(self):
        with pytest.raises(ValueError):
            JobQueue(SolveService(), max_queue_depth=0)
        with pytest.raises(ValueError):
            JobQueue(SolveService(), default_deadline_s=-1.0)
        queue = JobQueue(SolveService(), num_workers=1)
        with queue, pytest.raises(ValueError):
            queue.submit_solve(build_training_graph("linear_mlp"),
                               "checkpoint_all", deadline_s=-2.0)


# --------------------------------------------------------------------------- #
# Client retry
# --------------------------------------------------------------------------- #
class TestClientRetry:
    def _client_with_script(self, script):
        client = ServeClient("http://test.invalid", max_retries=2,
                             backoff_s=0.01, backoff_cap_s=0.02)
        calls = []
        sleeps = []

        def fake_once(method, path, payload=None):
            calls.append((method, path))
            action = script[min(len(calls) - 1, len(script) - 1)]
            if isinstance(action, Exception):
                raise action
            return action

        client._request_once = fake_once
        client._sleep = sleeps.append
        return client, calls, sleeps

    def test_retries_503_until_success(self):
        client, calls, sleeps = self._client_with_script([
            ServeAPIError(503, "queue full", retry_after=0.01),
            ServeAPIError(503, "queue full", retry_after=0.01),
            '{"id": "j1"}',
        ])
        assert client._request("POST", "/v1/solve", {}) == {"id": "j1"}
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert all(delay >= 0.01 for delay in sleeps)

    def test_gives_up_after_max_retries(self):
        client, calls, _ = self._client_with_script([
            ServeAPIError(503, "queue full", retry_after=0.01),
        ])
        with pytest.raises(ServeAPIError) as excinfo:
            client._request("POST", "/v1/solve", {})
        assert excinfo.value.status == 503
        assert len(calls) == 3  # initial + 2 retries

    def test_non_503_never_retried(self):
        client, calls, _ = self._client_with_script([
            ServeAPIError(400, "bad request"),
        ])
        with pytest.raises(ServeAPIError):
            client._request("POST", "/v1/solve", {})
        assert len(calls) == 1

    def test_retry_delay_honors_server_hint(self):
        client = ServeClient("http://test.invalid", backoff_s=0.01,
                             backoff_cap_s=0.02)
        delay = client._retry_delay(0, retry_after=5.0)
        assert delay >= 5.0
        assert client._retry_delay(0, retry_after=None) <= 0.02


# --------------------------------------------------------------------------- #
# Disk store under concurrent writers
# --------------------------------------------------------------------------- #
class TestConcurrentDiskStore:
    def test_hammered_store_never_serves_torn_json(self, tmp_path, chain5_train):
        """Many threads rewriting the same key while readers poll: every read
        is either a miss or a fully valid result, and no temp files leak."""
        cache_dir = str(tmp_path / "store")
        result = solve_checkpoint_all(chain5_train,
                                      float(ample_budget(chain5_train)))
        writers = [PlanCache(max_entries=0, cache_dir=cache_dir)
                   for _ in range(4)]
        reader = PlanCache(max_entries=0, cache_dir=cache_dir)
        key = "deadbeef" * 8
        errors = []
        stop = threading.Event()

        def write_loop(cache):
            try:
                while not stop.is_set():
                    cache.put(key, result)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def read_loop():
            try:
                while not stop.is_set():
                    got = reader.get(key, chain5_train)
                    if got is not None:
                        assert got.feasible
                        assert got.compute_cost == result.compute_cost
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = ([threading.Thread(target=write_loop, args=(c,))
                    for c in writers]
                   + [threading.Thread(target=read_loop) for _ in range(3)])
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(10)
        assert not errors, errors
        final = reader.get(key, chain5_train)
        assert final is not None and final.feasible
        leftovers = [f for f in os.listdir(cache_dir) if ".tmp." in f]
        assert leftovers == []

    def test_torn_file_on_disk_degrades_to_miss(self, tmp_path, chain5_train):
        cache_dir = str(tmp_path / "store")
        cache = PlanCache(max_entries=0, cache_dir=cache_dir)
        result = solve_checkpoint_all(chain5_train,
                                      float(ample_budget(chain5_train)))
        key = "cafebabe" * 8
        cache.put(key, result)
        path = os.path.join(cache_dir, f"{key}.json")
        payload = json.dumps(result_to_wire(result))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload[: len(payload) // 2])  # simulate a torn write
        assert cache.get(key, chain5_train) is None


# --------------------------------------------------------------------------- #
# End-to-end: process daemon over HTTP with one grafted trace tree
# --------------------------------------------------------------------------- #
class TestProcessDaemonEndToEnd:
    def test_trace_tree_spans_submitter_and_worker_process(self, tmp_path):
        from repro.obs import Tracer, set_tracer

        graph = build_training_graph("linear_mlp", scale="ci")
        cache = PlanCache(max_entries=16, cache_dir=str(tmp_path / "plans"))
        previous = set_tracer(Tracer())  # keep the process tracer pristine
        server = SolveServer(port=0, service=SolveService(cache=cache),
                             num_workers=1, backend="process", tracing=True)
        server.start()
        try:
            client = ServeClient(server.url)
            handle = client.submit_solve(strategy="checkmate_ilp", graph=graph,
                                         budget=float(tight_budget(graph, 0.7)))
            status = client.wait(handle["job_id"], timeout=120)
            assert status["state"] == "done", status.get("error")
            trace = client.trace(handle["job_id"])
            phases = trace["phases"]
            # Submitter-side phases and worker-side phases in ONE tree.
            assert "queue-wait" in phases
            assert "job-run" in phases
            assert "solve" in phases  # recorded inside the worker process
            tree = trace["tree"]

            def find(node, name):
                if node["name"] == name:
                    return node
                for child in node.get("children", ()):
                    hit = find(child, name)
                    if hit is not None:
                        return hit
                return None

            job_run = next(filter(None, (find(root, "job-run")
                                         for root in tree)), None)
            assert job_run is not None
            assert find(job_run, "solve") is not None

            health = client.healthz()
            assert health["backend"] == "process"
            metrics = client.metrics()
            assert metrics["backend"]["name"] == "process"
            assert metrics["backend"]["tasks_shipped"] >= 1
        finally:
            server.stop()
            set_tracer(previous)
