"""Graph static-analysis framework: analyses, structural hashing, linter.

Covers the pure analyses (liveness, reachability, dead nodes, isomorphic
segments), the structural hash that keys the formulation cache, the
linter's diagnostics against deliberately corrupted presets, and the
service's warn-only lint hook.  The repeated-block preset also closes the
loop end-to-end: its exact schedule below the no-recompute peak executes
with bit-identical outputs.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    dead_nodes,
    isomorphic_segment_groups,
    lint_graph,
    lint_graph_cached,
    live_node_mask,
    live_roots,
    liveness_intervals,
    reachable_from,
    structural_graph_hash,
)
from repro.core import DFGraph, GraphError, NodeInfo

from helpers import below_liveness_budget


def graph_with_dead_branch() -> DFGraph:
    """0 -> 1 -> 4(loss); 0 -> 2 -> 3 is a dead side branch."""
    nodes = [NodeInfo(f"n{i}", cost=1.0, memory=4) for i in range(5)]
    deps = {0: [], 1: [0], 2: [0], 3: [2], 4: [1]}
    return DFGraph(nodes=nodes, deps=deps, name="dead-branch")


def mostly_dead() -> DFGraph:
    """Every non-terminal node but one is a sink nothing consumes."""
    nodes = [NodeInfo(f"n{i}", cost=1.0, memory=2) for i in range(4)]
    deps = {0: [], 1: [], 2: [], 3: [0]}
    return DFGraph(nodes=nodes, deps=deps, name="mostly-dead")


def zero_chain(length: int) -> DFGraph:
    """A head with cost 1, ``length - 1`` zero-cost tail nodes, then a loss."""
    nodes = [NodeInfo("head", cost=1.0, memory=4)]
    nodes += [NodeInfo(f"z{i}", cost=0.0, memory=1) for i in range(length - 1)]
    deps = {i: ([i - 1] if i else []) for i in range(length)}
    nodes.append(NodeInfo("loss", cost=2.0, memory=4))
    deps[length] = [length - 1]
    return DFGraph(nodes=nodes, deps=deps, name="zero-chain")


class TestAnalyses:
    def test_liveness_intervals_chain(self, chain5_train):
        intervals = liveness_intervals(chain5_train)
        n = chain5_train.size
        assert intervals.shape == (n, 2)
        # Definition stage is the node's own index; last use never precedes it.
        assert (intervals[:, 0] == np.arange(n)).all()
        assert (intervals[:, 1] >= intervals[:, 0]).all()
        # The first activation is consumed by the backward pass: long interval.
        assert intervals[0, 1] > chain5_train.size // 2

    def test_live_roots_training_graph(self, chain5_train):
        roots = live_roots(chain5_train)
        assert chain5_train.terminal_node in roots
        # Every backward sink (parameter gradient) is a root.
        for i in chain5_train.sinks():
            if chain5_train.nodes[i].is_backward:
                assert i in roots

    def test_training_graphs_have_no_dead_nodes(self, tiny_vgg_train):
        assert dead_nodes(tiny_vgg_train) == []

    def test_dead_branch_detected(self):
        graph = graph_with_dead_branch()
        assert dead_nodes(graph) == [2, 3]
        mask = live_node_mask(graph)
        assert mask.tolist() == [True, True, False, False, True]

    def test_forward_sinks_besides_the_terminal_are_not_roots(self):
        graph = graph_with_dead_branch()
        assert live_roots(graph) == [graph.terminal_node] == [4]

    def test_dead_sink_dies_in_its_own_stage(self):
        intervals = liveness_intervals(graph_with_dead_branch())
        # Node 0 feeds nodes 1 and 2: it lives until its last consumer.
        assert intervals[0].tolist() == [0, 2]
        assert intervals[3].tolist() == [3, 3]
        assert intervals[4].tolist() == [4, 4]

    def test_reachable_from_skips_out_of_range_roots(self):
        graph = graph_with_dead_branch()
        assert reachable_from(graph, [-1, graph.size, 1]) == {0, 1}
        assert reachable_from(graph, []) == set()

    def test_live_set_is_ancestor_closed(self, tiny_unet_train):
        for graph in (graph_with_dead_branch(), mostly_dead(), tiny_unet_train):
            mask = live_node_mask(graph)
            for i in np.flatnonzero(mask):
                assert all(mask[p] for p in graph.predecessors(int(i))), graph.name


class TestAnalysisEdgeCases:
    def test_empty_graph(self):
        empty = DFGraph(nodes=(), deps={}, name="empty")
        assert liveness_intervals(empty).shape == (0, 2)
        assert live_roots(empty) == []
        assert live_node_mask(empty).shape == (0,)
        assert dead_nodes(empty) == []
        assert isomorphic_segment_groups(empty) == {}
        assert structural_graph_hash(empty) == structural_graph_hash(
            DFGraph(nodes=(), deps={}, name="other-empty"))

    def test_single_node_graph(self):
        one = DFGraph(nodes=(NodeInfo("only", cost=1.0, memory=1),),
                      deps={0: []}, name="one")
        assert liveness_intervals(one).tolist() == [[0, 0]]
        assert live_roots(one) == [0]
        assert dead_nodes(one) == []
        assert isomorphic_segment_groups(one) == {}
        report = lint_graph(one)
        assert report.diagnostics == [] and report.ok

    def test_all_dead_except_loss(self):
        # Only the loss and its one ancestor survive.
        graph = mostly_dead()
        assert dead_nodes(graph) == [1, 2]
        assert live_node_mask(graph).tolist() == [True, False, False, True]
        r001 = [d for d in lint_graph(graph).diagnostics if d.code == "R001"]
        assert [(d.node, d.node_name) for d in r001] == [(1, "n1"), (2, "n2")]


class TestStructuralHash:
    def test_name_and_meta_invariance(self, chain5_train):
        renamed = DFGraph(
            nodes=tuple(NodeInfo(f"x{i}", n.cost, n.memory, n.is_backward,
                                 n.layer_id)
                        for i, n in enumerate(chain5_train.nodes)),
            deps=chain5_train.deps,
            input_memory=chain5_train.input_memory,
            parameter_memory=chain5_train.parameter_memory,
            name="totally-different", meta={"op_attrs": [{"k": 1}]})
        assert structural_graph_hash(renamed) == structural_graph_hash(chain5_train)

    def test_cost_sensitivity(self, chain5_train):
        costs = {i: chain5_train.cost(i) for i in range(chain5_train.size)}
        costs[0] += 1.0
        bumped = chain5_train.with_costs(costs)
        assert structural_graph_hash(bumped) != structural_graph_hash(chain5_train)

    def test_memory_and_edge_sensitivity(self):
        base = graph_with_dead_branch()
        heavier = DFGraph(
            nodes=(dataclasses.replace(base.nodes[0], memory=5),) + base.nodes[1:],
            deps=base.deps, name=base.name)
        rewired = DFGraph(nodes=base.nodes, deps={**base.deps, 3: [0]},
                          name=base.name)
        digests = {structural_graph_hash(g) for g in (base, heavier, rewired)}
        assert len(digests) == 3

    def test_memoized_on_instance(self, chain5):
        first = structural_graph_hash(chain5)
        assert structural_graph_hash(chain5) is first  # cached string

    def test_isomorphic_groups_on_repeated_blocks(self):
        from repro.experiments.presets import build_training_graph
        graph = build_training_graph("deepblock")
        groups = isomorphic_segment_groups(graph)
        repeated = [segs for segs in groups.values() if len(segs) > 1]
        assert repeated, "deepblock's identical blocks must group together"
        largest = max(repeated, key=len)
        assert len(largest) >= 2
        # Segments in one group never overlap and have equal length.
        sizes = {len(s) for s in largest}
        assert len(sizes) == 1
        flat = [i for seg in largest for i in seg]
        assert len(flat) == len(set(flat))


class TestLinter:
    def test_empty_graph_is_g001_warning(self):
        empty = DFGraph(nodes=(), deps={}, name="empty")
        report = lint_graph(empty)
        assert [d.code for d in report.diagnostics] == ["G001"]
        assert report.ok  # G001 is a warning, not an error

    def test_clean_preset(self, tiny_vgg_train):
        report = lint_graph(tiny_vgg_train)
        assert report.ok
        assert report.errors == 0

    def test_dead_node_warning(self):
        report = lint_graph(graph_with_dead_branch())
        codes = [d.code for d in report.diagnostics]
        assert codes.count("R001") == 2
        assert report.ok  # warnings only

    def test_zero_cost_chain_tails_are_c002(self):
        report = lint_graph(zero_chain(5))
        c002 = [d for d in report.diagnostics if d.code == "C002"]
        # Every zero-cost tail node is flagged; the head and the loss are not.
        assert [d.node for d in c002] == [1, 2, 3, 4]
        assert all(d.severity == "info" for d in c002)
        assert [d.code for d in report.diagnostics] == ["C002"] * 4
        assert report.ok

    def test_c002_skips_terminal_and_mixed_direction(self, chain5_train):
        # Node 1 is zero-cost but crosses from forward to backward; node 2
        # is zero-cost but is the terminal: neither is a fusion candidate.
        nodes = (NodeInfo("x", cost=1.0, memory=2),
                 NodeInfo("grad_view", cost=0.0, memory=2, is_backward=True),
                 NodeInfo("out", cost=0.0, memory=2, is_backward=True))
        graph = DFGraph(nodes=nodes, deps={0: [], 1: [0], 2: [1]}, name="mixed")
        assert not any(d.code == "C002" for d in lint_graph(graph).diagnostics)
        # A graph with no zero-cost node has no candidates at all.
        assert not any(d.code == "C002"
                       for d in lint_graph(chain5_train).diagnostics)

    def test_forward_after_backward_is_t001_error(self):
        nodes = (NodeInfo("x", cost=1.0, memory=2),
                 NodeInfo("grad", cost=1.0, memory=2, is_backward=True),
                 NodeInfo("late", cost=1.0, memory=2))
        graph = DFGraph(nodes=nodes, deps={0: [], 1: [0], 2: [1]}, name="t001")
        report = lint_graph(graph)
        t001 = [d for d in report.diagnostics if d.code == "T001"]
        assert [(d.node, d.severity) for d in t001] == [(2, "error")]
        assert not report.ok

    def test_nan_cost_is_c001_error(self, tiny_vgg_train):
        costs = [tiny_vgg_train.cost(i) for i in range(tiny_vgg_train.size)]
        costs[0], costs[1] = float("nan"), float("inf")
        with pytest.raises(GraphError, match="finite"):
            tiny_vgg_train.with_costs(costs)
        # The constructor rejects non-finite costs; C001 still flags nodes
        # replaced after construction.
        corrupted = copy.copy(tiny_vgg_train)
        corrupted.nodes = tuple(dataclasses.replace(node, cost=cost)
                                for node, cost in zip(corrupted.nodes, costs))
        report = lint_graph(corrupted)
        c001 = [d for d in report.diagnostics if d.code == "C001"]
        assert {d.node for d in c001} == {0, 1}
        assert not report.ok

    def test_mangled_grad_index_is_m001_error(self, tiny_vgg_train):
        meta = dict(tiny_vgg_train.meta)
        meta["grad_index"] = {0: 1}  # node 1 is a forward node, not a grad
        corrupted = DFGraph(
            nodes=tiny_vgg_train.nodes, deps=tiny_vgg_train.deps,
            input_memory=tiny_vgg_train.input_memory,
            parameter_memory=tiny_vgg_train.parameter_memory,
            name=tiny_vgg_train.name, meta=meta)
        report = lint_graph(corrupted)
        assert any(d.code == "M001" for d in report.diagnostics)
        assert not report.ok

    def test_truncated_op_types_is_m002_error(self, tiny_vgg_train):
        meta = dict(tiny_vgg_train.meta)
        meta["op_types"] = list(meta["op_types"])[:-2]
        corrupted = DFGraph(
            nodes=tiny_vgg_train.nodes, deps=tiny_vgg_train.deps,
            input_memory=tiny_vgg_train.input_memory,
            parameter_memory=tiny_vgg_train.parameter_memory,
            name=tiny_vgg_train.name, meta=meta)
        report = lint_graph(corrupted)
        m002 = [d for d in report.diagnostics if d.code == "M002"]
        assert m002 and "op_types" in m002[0].message

    def test_budget_below_floor_is_b001_warning(self, tiny_vgg_train):
        report = lint_graph(tiny_vgg_train, budget=1.0)
        assert any(d.code == "B001" for d in report.diagnostics)
        # An ample budget must not warn.
        ample = float(tiny_vgg_train.constant_overhead
                      + 2 * tiny_vgg_train.total_activation_memory())
        assert not any(d.code == "B001"
                       for d in lint_graph(tiny_vgg_train, budget=ample).diagnostics)

    def test_report_to_dict_shape(self):
        report = lint_graph(graph_with_dead_branch())
        payload = report.to_dict()
        assert set(payload) == {"graph", "nodes", "ok", "counts", "diagnostics"}
        assert payload["counts"]["warning"] == 2
        for diag in payload["diagnostics"]:
            assert set(diag) == {"code", "severity", "message", "node",
                                 "node_name"}

    def test_cached_lint_replays_same_report(self, tiny_vgg_train):
        first = lint_graph_cached(tiny_vgg_train, budget=1.0)
        second = lint_graph_cached(tiny_vgg_train, budget=1.0)
        assert second is first
        # A different budget is a different key.
        other = lint_graph_cached(tiny_vgg_train, budget=2.0)
        assert other is not first


class TestFormulationCacheSharing:
    def test_structurally_equal_graphs_compile_once(self, chain5_train):
        from repro.solvers.compiled import FormulationCache

        renamed = DFGraph(
            nodes=tuple(NodeInfo(f"y{i}", n.cost, n.memory, n.is_backward,
                                 n.layer_id)
                        for i, n in enumerate(chain5_train.nodes)),
            deps=chain5_train.deps,
            input_memory=chain5_train.input_memory,
            parameter_memory=chain5_train.parameter_memory,
            name="renamed-twin", meta={})
        cache = FormulationCache(max_entries=8)
        a = cache.get(chain5_train)
        b = cache.get(renamed)
        assert b is a  # shared compiled block
        stats = cache.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 1

    def test_op_attrs_do_not_split_the_formulation_cache(self, chain5_train):
        # Satellite regression: attrs change plan identity, not formulation
        # identity.
        from repro.service.hashing import graph_content_hash
        from repro.solvers.compiled import FormulationCache

        variant_a = DFGraph(
            nodes=chain5_train.nodes, deps=chain5_train.deps,
            input_memory=chain5_train.input_memory,
            parameter_memory=chain5_train.parameter_memory,
            name=chain5_train.name,
            meta={"op_attrs": [{"stride": 1}]})
        variant_b = DFGraph(
            nodes=chain5_train.nodes, deps=chain5_train.deps,
            input_memory=chain5_train.input_memory,
            parameter_memory=chain5_train.parameter_memory,
            name=chain5_train.name,
            meta={"op_attrs": [{"stride": 2}]})
        # Content hashes (plan-cache keys) must differ: the executed
        # computation differs even though the schedule problem is identical.
        assert graph_content_hash(variant_a) != graph_content_hash(variant_b)
        # Structural hashes (formulation keys) must collide on purpose.
        assert (structural_graph_hash(variant_a)
                == structural_graph_hash(variant_b))
        cache = FormulationCache(max_entries=8)
        assert cache.get(variant_b) is cache.get(variant_a)


class TestServiceIntegration:
    def test_rematerialized_schedule_executes_bit_exact(self):
        from repro.execution import build_execution_report
        from repro.experiments.presets import (
            build_numeric_training_graph, build_training_graph)
        from repro.service import SolveService

        graph = build_training_graph("deepblock")
        budget = below_liveness_budget(graph, 0.7)
        result = SolveService().solve(graph, "checkmate_ilp", budget)
        assert result.feasible
        numeric = build_numeric_training_graph("deepblock")
        report = build_execution_report(numeric, result)
        assert report.executed
        assert report.outputs_match and report.max_abs_error == 0.0
        assert report.ok
        # Below the peak the schedule recomputes, identity views included.
        assert report.measured_num_compute > graph.size

    def test_lint_hook_counts_in_statistics(self, chain5_train):
        from repro.service import SolveService

        service = SolveService()
        service.solve(chain5_train, "checkpoint_all")
        snapshot = service.statistics()
        assert snapshot["analysis"]["lint_runs"] >= 1
        assert snapshot["analysis"]["lint_errors"] == 0

    def test_lint_hook_never_fails_a_solve(self, monkeypatch, chain5_train):
        import repro.service.solve as solve_mod
        from repro.service import SolveService

        def explode(*args, **kwargs):
            raise RuntimeError("lint meltdown")

        monkeypatch.setattr("repro.analysis.lint.lint_graph_cached", explode)
        service = SolveService()
        result = service.solve(chain5_train, "checkpoint_all")
        assert result.feasible  # advisory hook: the solve still lands
        assert solve_mod is not None
