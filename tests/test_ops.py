"""The operation table: every serving surface derives from one declaration.

Covers the "declared once" contract (each ``OPERATIONS`` entry is reachable
over HTTP, from ``ServeClient``, from the ``repro`` CLI and, when queued,
from ``JobQueue``), the process-worker payload (the pickled work), and
the input boundary: malformed graphs and presets
get a 4xx on every endpoint, never a 5xx.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest

from repro.analysis.lint import lint_graph
from repro.core import DFGraph, GraphError, NodeInfo
from repro.experiments import build_training_graph
from repro.server import JobQueue, ServeAPIError, ServeClient, SolveServer
from repro.server.ops import (
    OPERATIONS,
    ExecuteWork,
    LintWork,
    ParetoWork,
    SolveWork,
    SweepWork,
    operation_for,
)
from repro.service import SolverOptions, SolveService, SweepCell
from repro.service.hashing import graph_content_hash
from repro.utils.serialization import graph_to_wire

#: CLI verbs whose name differs from their operation's.
CLI_VERBS = {"solve": "submit"}


@pytest.fixture(scope="module")
def server():
    with SolveServer(port=0, num_workers=1) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout=30, max_retries=0)


def _status(client, operation: str, payload: dict) -> int:
    try:
        client._request("POST", f"/v1/{operation}", payload)
    except ServeAPIError as exc:
        return exc.status
    return 200


# --------------------------------------------------------------------------- #
# Declared once
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_every_operation_is_wired_on_every_surface(name, client):
    from repro.cli import build_parser

    op = OPERATIONS[name]
    # HTTP: the route exists (an empty request is a 400, not "no route").
    assert _status(client, name, {}) == 400
    # Client: ``submit_<name>`` for queued operations, ``<name>`` otherwise.
    method = f"submit_{name}" if op.queued else name
    assert callable(getattr(ServeClient, method, None)), method
    # CLI: a verb in ``repro --help``.
    assert CLI_VERBS.get(name, name) in build_parser().format_help()
    # Queue: ``JobQueue.submit_<name>`` for queued operations.
    if op.queued:
        assert callable(getattr(JobQueue, f"submit_{name}", None))


def _sample_work(name: str, graph: DFGraph):
    options = SolverOptions(seed=3, checkpoints=(2, 1), entrants=("a", "b"))
    return {
        "solve": SolveWork(graph, "checkpoint_all", 100.0, options),
        "sweep": SweepWork(graph, (SweepCell("checkpoint_all", 1.0, options),
                                   SweepCell("ap_sqrt_n")), SolverOptions()),
        "execute": ExecuteWork(graph, "checkmate_ilp", 5.0, None, seed=4),
        "pareto": ParetoWork(graph, "checkmate_ilp", 1.0, 2.0, 0.5, options),
        "lint": LintWork(graph, 7.0),
    }[name]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_work_pickles_back_to_the_same_work(name):
    """Process workers receive the pickled work dataclass: it must come back
    equal, dispatch to the same operation, carry the graph's content-hash
    memo and, for queued operations, single-flight under the same key."""
    graph = build_training_graph("linear_mlp")
    digest = graph_content_hash(graph)
    work = _sample_work(name, graph)
    op = OPERATIONS[name]
    assert isinstance(work, op.work)
    restored = pickle.loads(pickle.dumps(work))
    assert restored == work
    assert operation_for(restored) is op
    assert restored.graph.__dict__.keys() >= graph.__dict__.keys()
    assert graph_content_hash(restored.graph) == digest
    if op.queued:
        service = SolveService(cache=None)
        assert op.flight(service, restored, digest) == \
            op.flight(service, work, digest)


# --------------------------------------------------------------------------- #
# Input boundary: no 5xx for malformed graphs and presets
# --------------------------------------------------------------------------- #
def _wire(chain5_train, **changes) -> dict:
    return dict(graph_to_wire(chain5_train), **changes)


MALFORMED = {
    "short-node-row": lambda g: {"graph": _wire(g, nodes=[["a", 1.0, 1]])},
    "deps-as-list": lambda g: {"graph": _wire(g, deps=[[0]])},
    "meta-as-list": lambda g: {"graph": _wire(g, meta=["x"])},
    "preset-as-list": lambda g: {"preset": ["x"]},
    "nan-cost": lambda g: {"graph": _wire(
        g, nodes=[["n0", float("nan"), 1, False, None]], deps={"0": []})},
    "meta-n-forward-string": lambda g: {"graph": _wire(
        g, meta=dict(graph_to_wire(g)["meta"], n_forward="abc"))},
    "meta-op-types-int": lambda g: {"graph": _wire(
        g, meta=dict(graph_to_wire(g)["meta"], op_types=5))},
    "meta-grad-index-list": lambda g: {"graph": _wire(
        g, meta=dict(graph_to_wire(g)["meta"], grad_index=[1, 2]))},
    "meta-shapes-string": lambda g: {"graph": _wire(
        g, meta=dict(graph_to_wire(g)["meta"], shapes="x"))},
    "meta-op-attrs-int": lambda g: {"graph": _wire(
        g, meta=dict(graph_to_wire(g)["meta"], op_attrs=3))},
}
# ``wait_s`` follows the ``deadline_s`` rule: positive, finite seconds.
MALFORMED.update({
    f"wait_s={value!r}": (lambda value: lambda g: {"graph": _wire(g),
                                                   "wait_s": value})(value)
    for value in (-1, 0, "5", True, 1e999, {}, [])})


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_is_rejected_with_400(name, case, client, chain5_train):
    payload = dict(MALFORMED[case](chain5_train), strategy="checkpoint_all",
                   strategies=["checkpoint_all"])
    # The synchronous lint has no queue fields: it ignores ``wait_s``.
    ignored = "wait_s" in payload and not OPERATIONS[name].queued
    assert _status(client, name, payload) == (200 if ignored else 400)


@pytest.mark.parametrize("option", ["generate_plan", "rounding_mode", "max_nodes"])
@pytest.mark.parametrize("name", sorted(
    name for name, op in OPERATIONS.items()
    if "options" in {f.name for f in fields(op.work)}))
def test_removed_options_are_unknown(name, option, client):
    """Removed knobs are unknown solver options like any other: the plan is
    lowered on demand, the rounding scheme is the strategy key, and the
    node-capped branch-and-bound is a test oracle, not a strategy."""
    graph = build_training_graph("linear_mlp")  # executable, for /v1/execute
    payload = {"graph": graph_to_wire(graph), "strategy": "checkpoint_all",
               "strategies": ["checkpoint_all"],
               "options": {option: "randomized"}}
    with pytest.raises(ServeAPIError) as err:
        client._request("POST", f"/v1/{name}", payload)
    assert err.value.status == 400
    assert "unknown solver options" in err.value.message


#: Client errors a worker would only meet mid-solve: each is a 400 at
#: submission.  ``None`` budget: every formulation solver needs one.
CLIENT_ERRORS = {
    **{f"no-budget-{key}": {"strategy": key, "budget": None}
       for key in ("checkmate_ilp", "checkmate_approx", "approx_threshold_sweep",
                   "approx_random_threshold", "approx_randomized", "race")},
    "allowance-1.5": {"strategy": "checkmate_approx",
                      "options": {"allowance": 1.5}},
    "checkpoint-outside-graph": {"strategy": "min_r",
                                 "options": {"checkpoints": [9999]}},
    "race-entrant-race": {"strategy": "race", "options": {"entrants": ["race"]}},
    "race-entrant-unknown": {"strategy": "race", "options": {"entrants": ["nope"]}},
    "num-samples-string": {"strategy": "approx_randomized",
                           "options": {"num_samples": "x"}},
    "time-limit-string": {"strategy": "checkmate_ilp",
                          "options": {"time_limit_s": "abc"}},
}


@pytest.mark.parametrize("name", ["solve", "execute", "sweep"])
@pytest.mark.parametrize("case", sorted(CLIENT_ERRORS))
def test_client_errors_are_rejected_at_submission(name, case, client, server):
    graph = build_training_graph("linear_mlp")  # executable, for /v1/execute
    cell = dict({"budget": 10 * graph.total_activation_memory()},
                **CLIENT_ERRORS[case])
    payload = dict(cell, graph=graph_to_wire(graph), wait_s=5,
                   cells=[cell] if name == "sweep" else None)
    submitted = server.queue.metrics()["jobs"]["submitted"]
    assert _status(client, name, payload) == 400
    assert server.queue.metrics()["jobs"]["submitted"] == submitted


@pytest.mark.parametrize("meta", [{"n_forward": "abc"},
                                  {"grad_index": {"x": 1}}])
def test_lint_reports_malformed_meta_values_as_m001(meta, chain5_train):
    """A graph built in-process skips the wire check; the linter must still
    report its bad ``meta`` values instead of raising."""
    graph = DFGraph(nodes=chain5_train.nodes, deps=chain5_train.deps,
                    meta=dict(chain5_train.meta, **meta))
    report = lint_graph(graph)
    assert not report.ok
    assert any(d.code == "M001" for d in report.diagnostics)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_graph_rejects_non_finite_costs_and_memories(value):
    with pytest.raises(GraphError, match="finite"):
        DFGraph(nodes=[NodeInfo("a", cost=value, memory=1)], deps={})
    with pytest.raises(GraphError, match="finite"):
        DFGraph(nodes=[NodeInfo("a", cost=1.0, memory=value)], deps={})


def test_nan_cost_solve_is_a_400_not_a_failed_job(client, chain5_train):
    wire = graph_to_wire(chain5_train)
    wire["nodes"][0][1] = float("nan")
    with pytest.raises(ServeAPIError) as err:
        client._request("POST", "/v1/solve",
                        {"graph": wire, "strategy": "checkpoint_all"})
    assert err.value.status == 400
    assert "finite" in err.value.message
