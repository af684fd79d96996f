"""Self-tests of the benchmark: generator, correctness gate, span analysis
and the layer each workload is meant to load.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.server.client import ServeAPIError  # noqa: E402
from repro.service import SolveService  # noqa: E402
from repro.utils.serialization import result_to_wire  # noqa: E402

from servebench import layers, loop, workloads  # noqa: E402
from servebench.workloads import build_workload  # noqa: E402


def _cells(workload):
    return [(r.cell(), r.preset, r.hot) for r in workload.requests]


# --------------------------------------------------------------------------- #
# Workload generator
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = build_workload(name, 7, 1.0)
    again = build_workload(name, 7, 1.0)
    other = build_workload(name, 8, 1.0)
    assert _cells(first) == _cells(again)
    assert [r.cell() for r in first.warmup] == [r.cell() for r in again.warmup]
    assert _cells(first) != _cells(other)
    assert [r.index for r in first.requests] == list(range(len(first.requests)))


def test_exact_cold_cells_are_unique():
    workload = build_workload("exact-cold", 3, 30.0)
    pairs = [(r.preset, r.batch_size) for r in workload.requests]
    assert len(pairs) == len(set(pairs)) >= 200
    assert not set(pairs) & {(r.preset, r.batch_size) for r in workload.warmup}
    assert {r.strategy for r in workload.requests} == {workloads.EXACT}
    assert {r.preset for r in workload.requests} == set(workloads.EXACT_TIGHTNESS)


def test_hot_serving_hit_share_is_as_designed():
    workload = build_workload("hot-serving", 3, 2.0)
    requests = workload.requests
    assert len(requests) % workloads.HOT_BLOCK == 0
    hot = [r for r in requests if r.hot]
    assert len(hot) / len(requests) == pytest.approx(0.8)
    warm = {r.cell() for r in workload.warmup}
    assert {r.cell() for r in hot} == warm
    unique = [r.cell() for r in requests if not r.hot]
    assert len(unique) == len(set(unique))
    assert not set(unique) & warm
    assert all(r.strategy in workloads.HEURISTICS for r in requests if not r.hot)


def test_fresh_wire_graphs_are_distinct_and_sent_by_value():
    workload = build_workload("fresh-wire", 3, 2.0)
    keys = [(r.graph.name, r.batch_size) for r in workload.requests]
    assert len(keys) == len(set(keys))
    assert all(r.preset is None for r in workload.requests + workload.warmup)
    assert {r.graph.size for r in workload.requests} <= {50, 52, 60, 146}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_budgets_are_feasible(name):
    workload = build_workload(name, 5, 1.0)
    sample = workload.warmup[:4] + [r for r in workload.requests if not r.hot][:6]
    service = SolveService(cache=None)
    for request in sample:
        result = service.solve(request.graph, request.strategy, request.budget)
        assert result.feasible, (request.cell(), result.solver_status)
        assert result.within_budget(), request.cell()


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #
def _served(name="hot-serving"):
    request = next(r for r in build_workload(name, 1, 1.0).requests if not r.hot)
    result = SolveService(cache=None).solve(request.graph, request.strategy,
                                            request.budget)
    return request, result_to_wire(result)


def test_gate_accepts_a_valid_result():
    request, wire = _served()
    outcome = loop.check(request, wire, {"wait_s": 0.001, "run_s": 0.002})
    assert outcome.ok and outcome.overhead >= 1.0 and len(outcome.schedule_sha) == 64


@pytest.mark.parametrize("tamper", ["budget", "peak", "cost", "schedule"])
def test_gate_rejects_bad_results(tamper):
    request, wire = _served()
    if tamper == "budget":
        request = workloads.Request(request.index, request.strategy,
                                    float(wire["peak_memory"] - 1),
                                    request.graph, request.batch_size,
                                    request.preset)
        wire = dict(wire, budget=int(request.budget))
    elif tamper == "peak":
        wire = dict(wire, peak_memory=wire["peak_memory"] - 1)
    elif tamper == "cost":
        wire = dict(wire, compute_cost=wire["compute_cost"] * 0.5)
    else:
        schedule = json.loads(wire["schedule"])
        schedule["R"] = [[0] * len(row) for row in schedule["R"]]
        wire = dict(wire, schedule=json.dumps(schedule))
    with pytest.raises((loop.GateError, ValueError)):
        loop.check(request, wire, {})


def test_a_refused_request_counts_as_failed():
    request, _ = _served()

    class Refusing:
        def submit_solve(self, **kwargs):
            raise ServeAPIError(503, "queue full", retry_after=1.0)

    with pytest.raises(ServeAPIError):
        loop._serve_one(Refusing(), request)


# --------------------------------------------------------------------------- #
# Span analysis
# --------------------------------------------------------------------------- #
def _row(name, span_id, parent, start, end, rid=None, attrs=None):
    return (name, rid, span_id, parent, start, end, 1, 1, "t", attrs)


def test_self_time_subtracts_the_union_of_children():
    rows = [_row("root", 1, None, 0.0, 10.0, rid="job"),
            _row("a", 2, 1, 1.0, 3.0), _row("b", 3, 1, 2.0, 4.0),
            _row("c", 4, 1, 8.0, 12.0), _row("leaf", 5, 2, 1.5, 2.5)]
    own = layers.self_times(rows)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    assert layers.request_ids(rows) == {i: "job" for i in range(1, 6)}
    later = [_row("late", 6, None, 20.0, 21.0)]
    assert {r[2] for r in layers.within_window(rows + later, 15.0, 30.0)} == {6}


def test_recorder_nests_grafts_and_tags_requests():
    recorder = layers.Recorder()

    def inner():
        recorder.set_request("r1")

    outer = recorder.wrap("outer", lambda: wrapped_inner())
    wrapped_inner = recorder.wrap("inner", inner)
    outer()
    by_name = {row[0]: row for row in recorder.rows}
    assert by_name["inner"][3] == by_name["outer"][2]
    assert by_name["outer"][1] == "r1"
    recorder.graft([_row("remote", 1, None, 0.1, 0.2),
                    _row("remote-child", 2, 1, 0.1, 0.15)],
                   parent_id=by_name["outer"][2])
    grafted = {row[0]: row for row in recorder.rows}
    assert grafted["remote"][3] == by_name["outer"][2]
    assert grafted["remote-child"][3] == grafted["remote"][2]
    events = layers.chrome_events(recorder.rows)
    assert sum(1 for e in events if e["ph"] == "X") == 4


# --------------------------------------------------------------------------- #
# End to end: each workload loads the layer it exists for
# --------------------------------------------------------------------------- #
def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "servebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_shares_are_sane(name):
    proc = _run("--workload", name, "--seed", "11", "--seconds", "6",
                "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "exact-cold":
        assert metrics["solvers.highs_share"] >= 0.9
        assert metrics["solvers.variables"] > 0 and metrics["solvers.nnz"] > 0
    elif name == "hot-serving":
        assert metrics["solvers.highs_ms"] == 0.0
        assert metrics["service.cache_hit_frac"] == pytest.approx(0.8, abs=0.05)
    else:
        assert metrics["backends.ship_ms"] > 0.0
        assert metrics["serialization.graph_decode_ms"] > 0.0
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    with open(os.path.join(ROOT, "servebench-out", f"trace-{name}-11.json")) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"client.submit", "http.submit",
                                          "jobs.run"}
    assert len({e["pid"] for e in spans}) >= (4 if name == "fresh-wire" else 2)


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "servebench"), tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "hot-serving", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
