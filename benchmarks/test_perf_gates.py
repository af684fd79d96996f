"""Performance gates: each one a relative check that a regression would break.

Every timing gate compares two timings taken in the same process on the same
host (no absolute wall-clock bounds), on the smallest preset:

* re-budgeting a compiled formulation beats a cold compile;
* a warm-started exact sweep below the no-recompute peak beats a cold one,
  with identical objectives;
* tracing a plan-cache-hit sweep costs at most a few percent;
* the deadline race answers feasibly within the longest smoke deadline;
* thread and process daemons (each with a disk plan cache) serve the same
  open-loop replay with zero failed jobs, byte-identical schedules and
  strict Prometheus scrapes, and the process backend keeps up with the
  thread backend.

Each threshold is a module constant; a failing assertion prints the measured
value.  Run with:  PYTHONPATH=src python -m pytest benchmarks/test_perf_gates.py -q
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro.core import no_recompute_schedule, schedule_peak_memory
from repro.experiments import budget_grid, build_training_graph
from repro.obs import Tracer, install_phase_histograms, set_tracer, validate_prometheus_text
from repro.server import ServeAPIError, ServeClient
from repro.service import SolverOptions, SolveService, SweepCell
from repro.solvers import (CompiledFormulation, budget_floor_margin,
                           get_formulation_cache, min_feasible_budget_floor)

PRESET = "resnet_tiny"
SWEEP_CELLS = 8  #: budgets per timed sweep, warm-vs-cold and traced

MIN_REBUDGET_SPEEDUP = 10.0
MIN_WARM_SPEEDUP = 1.5
WARM_OBJECTIVE_RTOL = 1e-4
MAX_TRACE_OVERHEAD = 0.05
TRACE_PAIRS = 400
TRACE_TRIALS = 3
RACE_BUDGET_FRACTION = 0.5
RACE_DEADLINES_S = (0.5, 2.0)
MIN_PROCESS_OVER_THREAD = 1.0

#: The load replay's mixed solve workload (see :func:`_workload`).
LOAD_PRESETS = ("linear_mlp", "linear_cnn", "resnet_tiny")
LOAD_FRACTIONS = (0.45, 0.55, 0.65, 0.75)


@pytest.fixture(scope="module")
def graph():
    return build_training_graph(PRESET)


@pytest.fixture
def fresh_tracer():
    """A pristine process-wide tracer for the test, restored afterwards."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def _median_time(fn, repeats: int) -> float:
    """Median of ``repeats`` timings of ``fn``, after one warmup call."""
    fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def test_rebudget_beats_a_cold_compile(graph):
    budget = budget_grid(graph, 3)[1]
    compile_s = _median_time(lambda: CompiledFormulation(graph), 3)
    compiled = CompiledFormulation(graph)
    rebudget_s = _median_time(lambda: compiled.with_budget(budget), 50)
    speedup = compile_s / rebudget_s
    assert speedup >= MIN_REBUDGET_SPEEDUP, (
        f"re-budget {rebudget_s * 1e6:.1f} us is only {speedup:.1f}x faster than "
        f"a {compile_s * 1e3:.2f} ms compile (need {MIN_REBUDGET_SPEEDUP:g}x)")


def test_warm_sweep_beats_cold_with_identical_objectives(graph):
    """Budgets from the floor (plus margin) to just below the no-recompute
    peak: at or above that peak the liveness certificate answers every cell,
    warm or cold, so a sweep there measures no warm start at all.  Both runs
    use fresh plan caches and ``parallel=False``; the formulation cache is
    populated first, so neither pays the one-off compile."""
    get_formulation_cache().get(graph)
    low = min_feasible_budget_floor(graph) + budget_floor_margin(graph)
    high = schedule_peak_memory(graph, no_recompute_schedule(graph)) - 1
    cells = [SweepCell("checkmate_ilp", float(int(b)))
             for b in np.linspace(low, high, SWEEP_CELLS)]

    def timed_sweep(warm_start: bool):
        start = time.perf_counter()
        results = SolveService().sweep(graph, cells, parallel=False,
                                       warm_start=warm_start)
        return results, time.perf_counter() - start

    cold, cold_s = timed_sweep(False)
    warm, warm_s = timed_sweep(True)

    for cell, c, w in zip(cells, cold, warm):
        assert c.feasible == w.feasible, (cell, c.feasible, w.feasible)
        if c.feasible:
            assert abs(c.compute_cost - w.compute_cost) <= WARM_OBJECTIVE_RTOL * max(
                abs(c.compute_cost), abs(w.compute_cost), 1.0), (
                cell, c.compute_cost, w.compute_cost)
    speedup = cold_s / warm_s
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep {warm_s:.2f} s is only {speedup:.2f}x faster than cold "
        f"{cold_s:.2f} s (need {MIN_WARM_SPEEDUP:g}x)")


def test_tracing_overhead_on_a_cache_hit_sweep(graph, fresh_tracer):
    """Plan-cache hits are the instrumentation worst case: the solve is
    microseconds, so span bookkeeping is the largest slice it ever is.  Each
    traced sweep runs right after an untraced one, so clock drift and
    scheduler noise hit both; the estimator is ``median(on - off) /
    median(off)`` over many pairs, robust to the heavy right tail of wall
    clocks on shared machines, and the median of the trials counts."""
    cells = [SweepCell("checkmate_ilp", float(b))
             for b in budget_grid(graph, SWEEP_CELLS)]
    service = SolveService()
    service.sweep(graph, cells, parallel=False)  # warm the plan cache

    def one_sweep(traced: bool) -> float:
        if traced:
            fresh_tracer.enable()
        else:
            fresh_tracer.disable()
        start = time.perf_counter()
        service.sweep(graph, cells, parallel=False)
        return time.perf_counter() - start

    install_phase_histograms(fresh_tracer)
    for traced in (False, True):  # warm both code paths
        for _ in range(50):
            one_sweep(traced)

    overheads = []
    for _ in range(TRACE_TRIALS):
        offs, deltas = [], []
        for _ in range(TRACE_PAIRS):
            off = one_sweep(False)
            deltas.append(one_sweep(True) - off)
            offs.append(off)
        overheads.append(statistics.median(deltas) / statistics.median(offs))
    fresh_tracer.disable()
    overhead = statistics.median(overheads)
    assert overhead <= MAX_TRACE_OVERHEAD, (
        f"traced sweep {overhead:.2%} slower than untraced "
        f"(trials {[f'{o:.2%}' for o in overheads]}, bound {MAX_TRACE_OVERHEAD:.0%})")


def test_race_is_feasible_at_the_longest_deadline(graph):
    """One cold race per deadline, each against a fresh uncached service."""
    budget = int(graph.constant_overhead
                 + graph.total_activation_memory() * RACE_BUDGET_FRACTION)
    curve = []
    for deadline in RACE_DEADLINES_S:
        result = SolveService(cache=None).solve(
            graph, "race", budget, SolverOptions(deadline_s=deadline))
        curve.append((deadline, result.feasible,
                      (result.extra or {}).get("race", {}).get("winner")))
    assert curve[-1][1], f"race infeasible at {RACE_DEADLINES_S[-1]} s: {curve}"


# --------------------------------------------------------------------------- #
# Open-loop load replay against the daemon
# --------------------------------------------------------------------------- #
def _workload(num_requests: int) -> list:
    """``num_requests`` exact solve cells cycling over the presets at stepped
    budget fractions, each with a unique budget (``+ i``), so no two requests
    share a flight or a plan-cache entry."""
    spans = {}
    for preset in LOAD_PRESETS:
        g = build_training_graph(preset, scale="ci")
        spans[preset] = (g.constant_overhead, g.total_activation_memory())
    requests = []
    for i in range(num_requests):
        preset = LOAD_PRESETS[i % len(LOAD_PRESETS)]
        fraction = LOAD_FRACTIONS[(i // len(LOAD_PRESETS)) % len(LOAD_FRACTIONS)]
        overhead, activations = spans[preset]
        requests.append((preset, float(int(overhead + activations * fraction + i))))
    return requests


class Replay(NamedTuple):
    failed: int  #: jobs that did not finish ``done``
    throughput_per_s: float  #: done jobs over first submit to last finish
    schedules: dict  #: each done cell's schedule text


def _replay(url: str, requests: list, rate_per_s: float) -> Replay:
    """Submit ``requests`` on a fixed arrival clock, whether or not earlier
    jobs have finished, then wait for every job to settle; the throughput
    comes from the server-side job timestamps."""
    client = ServeClient(url, timeout=30.0, max_retries=0)
    jobs = [None] * len(requests)

    def submit(i: int) -> None:
        preset, budget = requests[i]
        jobs[i] = client.submit_solve(strategy="checkmate_ilp", preset=preset,
                                      budget=budget, wait_s=None)["job_id"]

    start = time.monotonic()
    threads = []
    for i in range(len(requests)):
        delay = start + i / rate_per_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        # One thread per submission keeps the arrival clock open-loop even
        # when a submission blocks on a busy accept queue.
        threads.append(threading.Thread(target=submit, args=(i,), daemon=True))
        threads[-1].start()
    for thread in threads:
        thread.join(30)
    assert None not in jobs, f"submissions failed: {jobs}"
    settled = [(cell, job_id, client.wait(job_id, timeout=600))
               for cell, job_id in zip(requests, jobs)]
    done = [(cell, job_id, status) for cell, job_id, status in settled
            if status["state"] == "done"]
    span = (max(status["finished_at"] for _, _, status in done)
            - min(status["submitted_at"] for _, _, status in done)) if done else 0.0
    schedules = {cell: client.result(job_id)["result"].get("schedule")
                 for cell, job_id, _ in done}
    return Replay(len(jobs) - len(done), len(done) / max(span, 1e-9), schedules)


@contextlib.contextmanager
def _daemon(backend: str, cache_dir):
    """A ``repro serve`` subprocess on an ephemeral port with a disk plan
    cache and no in-memory one; yields its URL once healthy and stops it
    (SIGTERM, as Ctrl-C) on exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--backend", backend, "--workers", "2", "--cache-entries", "0",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        banner = proc.stdout.readline()  # '' if the daemon exits first
        assert "listening on " in banner, f"daemon failed to start: {banner!r}"
        url = banner.split("listening on ", 1)[1].split()[0]
        client = ServeClient(url, timeout=2.0)
        deadline = time.monotonic() + 120
        while True:
            try:
                health = client.healthz()
                if health["status"] == "ok":
                    assert health["backend"] == backend, health
                    break
            except ServeAPIError:  # still warming its worker pool
                pass
            assert time.monotonic() < deadline, f"{url} never became healthy"
            time.sleep(0.1)
        yield url
    finally:
        proc.terminate()
        try:
            proc.wait(30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def test_thread_and_process_daemons_agree_and_keep_pace(tmp_path):
    """The same replay against a thread and a process daemon: no failed
    jobs, byte-identical schedules per cell, a strict Prometheus scrape of
    each daemon, and process throughput at least on par with threads
    (the check catches regressions on the worker IPC path)."""
    requests = _workload(24)
    runs = {}
    for backend in ("thread", "process"):
        with _daemon(backend, tmp_path / backend) as url:
            runs[backend] = _replay(url, requests, rate_per_s=12.0)
            scrape = ServeClient(url).metrics_prometheus()
        samples = validate_prometheus_text(scrape)  # raises on a malformed line
        assert sum(samples.values()) > 0, (backend, scrape)
    thread, process = runs["thread"], runs["process"]
    assert (thread.failed, process.failed) == (0, 0), (thread.failed, process.failed)
    diverged = [cell for cell in thread.schedules
                if thread.schedules[cell] != process.schedules.get(cell)]
    assert not diverged, f"schedules differ between backends: {diverged}"
    ratio = process.throughput_per_s / thread.throughput_per_s
    assert ratio >= MIN_PROCESS_OVER_THREAD, (
        f"process {process.throughput_per_s:.3f}/s vs thread "
        f"{thread.throughput_per_s:.3f}/s: ratio {ratio:.4f} "
        f"(need {MIN_PROCESS_OVER_THREAD:g})")
