"""Predicted-vs-measured tests: executing solved schedules over real tensors.

The acceptance property: for Algorithm 1 plans across the registered solver
strategies on executable presets, the executor's measured peak (plus constant
overhead -- the documented allocate-vs-compute charge point means both
accountings include it) equals ``simulate_plan``'s prediction, measured
recompute counts equal the plan's, and every output is bit-identical to
checkpoint-all execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulator import simulate_plan
from repro.execution import (
    build_execution_report,
    execute_checkpoint_all,
    execute_plan,
)
from repro.experiments.presets import build_numeric_training_graph
from repro.service import SolverOptions, SolveService

from helpers import ample_budget, tight_budget


@pytest.fixture(scope="module")
def mlp_numeric():
    return build_numeric_training_graph("linear_mlp", scale="ci", seed=0,
                                        hidden_sizes=[32] * 6, batch_size=4,
                                        input_features=32)


@pytest.fixture(scope="module")
def cnn_numeric():
    return build_numeric_training_graph("linear_cnn", scale="ci", seed=0,
                                        num_layers=5, batch_size=2,
                                        resolution=16, channels=8, pool_every=2)


@pytest.fixture(scope="module")
def vgg_numeric():
    return build_numeric_training_graph("vgg16", scale="ci", seed=0,
                                        batch_size=1, resolution=16,
                                        num_classes=10)


@pytest.fixture(scope="module")
def service():
    return SolveService()


NUMERIC_FIXTURES = ["mlp_numeric", "cnn_numeric", "vgg_numeric"]


# --------------------------------------------------------------------------- #
# The property: measured == predicted, for every strategy that solves
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture,fraction",
                         [("mlp_numeric", 0.8), ("cnn_numeric", 0.75),
                          ("vgg_numeric", 0.8)])
def test_measured_equals_predicted_across_strategies(fixture, fraction,
                                                     service, request):
    numeric = request.getfixturevalue(fixture)
    graph = numeric.graph
    budget = tight_budget(graph, fraction)
    options = SolverOptions(time_limit_s=120, lp_time_limit_s=120)
    reference = execute_checkpoint_all(numeric)
    strategies = service.registry.keys()
    executed = 0
    for strategy in strategies:
        result = service.solve(graph, strategy, budget, options, strict=False)
        if not result.feasible or result.matrices is None:
            continue
        plan = result.plan
        if plan is None:  # e.g. chen_greedy skips lowering; do it here
            from repro.core.scheduler import generate_execution_plan
            plan = generate_execution_plan(graph, result.matrices)
        trace = simulate_plan(graph, plan)
        measured = execute_plan(numeric, plan)
        assert (measured.peak_live_bytes + graph.constant_overhead
                == trace.peak_memory), strategy
        assert measured.num_compute == plan.total_computations(), strategy
        assert measured.compute_counts == plan.compute_counts(), strategy
        for node, value in measured.outputs.items():
            np.testing.assert_array_equal(value, reference.outputs[node],
                                          err_msg=f"{strategy} node {node}")
        executed += 1
    assert executed >= 3  # several strategies must actually solve the cell


# --------------------------------------------------------------------------- #
# Acceptance criterion: ILP schedules execute within budget on >= 3 presets
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture", NUMERIC_FIXTURES)
def test_ilp_schedule_executes_within_budget(fixture, service, request):
    numeric = request.getfixturevalue(fixture)
    graph = numeric.graph
    budget = tight_budget(graph, 0.7)
    report = service.execute(numeric, "checkmate_ilp", budget,
                             SolverOptions(time_limit_s=120))
    assert report.executed and report.feasible
    assert report.within_budget is True
    assert report.measured_peak_bytes <= budget
    assert report.peak_matches_plan
    assert report.peak_within_schedule
    assert report.measured_peak_bytes <= report.predicted_schedule_peak
    assert report.recompute_matches_plan
    assert report.outputs_match and report.max_abs_error == 0.0
    assert report.size_mismatched_nodes == []
    assert report.ok
    # Rematerializing must genuinely run below the checkpoint-all footprint.
    assert report.measured_peak_bytes < report.checkpoint_all_peak_bytes


# --------------------------------------------------------------------------- #
# Report semantics
# --------------------------------------------------------------------------- #
def test_report_for_infeasible_result(mlp_numeric, service):
    graph = mlp_numeric.graph
    report = service.execute(mlp_numeric, "checkmate_ilp",
                             graph.constant_overhead + 1)
    assert not report.executed
    assert not report.ok
    assert report.error is not None
    assert "NOT EXECUTED" in report.summary()


def test_report_roundtrips_to_json(mlp_numeric, service):
    import json

    report = service.execute(mlp_numeric, "checkmate_approx",
                             tight_budget(mlp_numeric.graph, 0.8))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] == report.ok
    assert payload["measured_peak_bytes"] == report.measured_peak_bytes


def test_report_detects_plan_schedule_divergence(mlp_numeric, service,
                                                 monkeypatch):
    # Adversarial: insert a spurious recompute (into the node's still-live
    # register -- structurally legal) right after the node's original compute.
    # The plan no longer matches the (R, S) matrices, and the report must say
    # so instead of blessing the run.
    import dataclasses

    from repro.core import scheduler
    from repro.core.plan import ComputeNode, ExecutionPlan

    result = service.solve(mlp_numeric.graph, "checkpoint_all",
                           ample_budget(mlp_numeric.graph))
    statements = list(result.plan.statements)
    first_idx, first_compute = next(
        (i, s) for i, s in enumerate(statements) if isinstance(s, ComputeNode))
    statements.insert(first_idx + 1,
                      ComputeNode(register=first_compute.register,
                                  node_id=first_compute.node_id))
    tampered = ExecutionPlan(statements=statements,
                             graph_name=result.plan.graph_name)
    tampered.validate_structure()
    # A broken lowering: the doctored copy (its plan not yet memoized) lowers
    # through the patched scheduler and gets the tampered plan.
    monkeypatch.setattr(scheduler, "generate_execution_plan",
                        lambda graph, matrices: tampered)
    doctored = dataclasses.replace(result)
    assert doctored.plan is tampered
    report = build_execution_report(mlp_numeric, doctored)
    assert report.executed
    assert not report.plan_matches_schedule
    assert not report.ok
    # The executor still agrees with the tampered plan's own accounting
    # (register reuse fix: the duplicate compute replaces, never double
    # counts), so every other cross-check holds.
    assert report.peak_matches_plan
    assert report.recompute_matches_plan
    assert report.outputs_match


def test_execute_uses_plan_cache(mlp_numeric):
    service = SolveService()
    budget = tight_budget(mlp_numeric.graph, 0.75)
    first = service.execute(mlp_numeric, "checkmate_approx", budget)
    calls_after_first = service.statistics()["solver_calls"]
    second = service.execute(mlp_numeric, "checkmate_approx", budget)
    assert service.statistics()["solver_calls"] == calls_after_first  # warm cache
    assert service.statistics()["executions"] == 2
    assert first.measured_peak_bytes == second.measured_peak_bytes
    assert service.statistics()["executions"] == 2


def test_execute_binds_plain_dfgraph():
    from repro.experiments.presets import build_training_graph

    service = SolveService()
    graph = build_training_graph("linear_mlp", scale="ci")
    report = service.execute(graph, "checkmate_ilp",
                             tight_budget(graph, 0.8), seed=3)
    assert report.executed and report.outputs_match
