"""Graph static-analysis framework: analyses, passes, provenance, linter.

Covers the edge cases the pass manager must survive (empty graph, single
node, everything-dead-but-the-loss, the fixed-point termination bound),
round-trips schedules through provenance under repeated fusion, checks the
linter's diagnostics against deliberately corrupted presets, and closes the
loop end-to-end: ``solve_canonicalized`` must produce the raw solve's
objective and an execution report with bit-identical outputs.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    DeadNodeElimination,
    PassManager,
    ZeroCostChainFusion,
    dead_nodes,
    isomorphic_segment_groups,
    lint_graph,
    lint_graph_cached,
    live_node_mask,
    live_roots,
    liveness_intervals,
    optimize_graph,
    structural_graph_hash,
)
from repro.analysis.passes import NodeProvenance
from repro.core import DFGraph, GraphError, NodeInfo
from repro.core.schedule import ScheduleMatrices, validate_correctness_constraints

from helpers import tight_budget

#: The repeated-block preset's compiled formulation must shrink by at least
#: this fraction of its nonzeros once canonicalized.
MIN_NNZ_REDUCTION = 0.05


def graph_with_dead_branch() -> DFGraph:
    """0 -> 1 -> 4(loss); 0 -> 2 -> 3 is a dead side branch."""
    nodes = [NodeInfo(f"n{i}", cost=1.0, memory=4) for i in range(5)]
    deps = {0: [], 1: [0], 2: [0], 3: [2], 4: [1]}
    return DFGraph(nodes=nodes, deps=deps, name="dead-branch")


def zero_chain(length: int) -> DFGraph:
    """A head with cost 1 followed by ``length - 1`` zero-cost tail nodes."""
    nodes = [NodeInfo("head", cost=1.0, memory=4)]
    nodes += [NodeInfo(f"z{i}", cost=0.0, memory=1) for i in range(length - 1)]
    deps = {i: ([i - 1] if i else []) for i in range(length)}
    # A non-zero-cost terminal so the chain nodes are all fusable.
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


class TestPassEdgeCases:
    def test_empty_graph(self):
        empty = DFGraph(nodes=(), deps={}, name="empty")
        result = optimize_graph(empty)
        assert result.graph.size == 0
        assert result.stats["converged"] is True
        assert result.stats["nodes_removed"] == 0
        report = lint_graph(empty)
        assert [d.code for d in report.diagnostics] == ["G001"]
        assert report.ok  # G001 is a warning, not an error

    def test_single_node_graph(self):
        one = DFGraph(nodes=(NodeInfo("only", cost=1.0, memory=1),),
                      deps={0: []}, name="one")
        result = optimize_graph(one)
        assert result.changed is False
        assert result.graph.size == 1
        assert result.provenance.orig_to_opt == (0,)

    def test_all_dead_except_loss(self):
        # Every non-terminal node is a sink nothing consumes: one DCE round
        # must strip the graph down to the loss alone.
        nodes = [NodeInfo(f"n{i}", cost=1.0, memory=2) for i in range(4)]
        deps = {0: [], 1: [], 2: [], 3: [0]}
        graph = DFGraph(nodes=nodes, deps=deps, name="mostly-dead")
        result = optimize_graph(graph)
        assert result.graph.size == 2  # the loss and its one ancestor
        assert result.stats["dce"] == 2
        assert result.provenance.orig_to_opt == (0, None, None, 1)

    def test_fixed_point_termination_bound(self):
        # A 5-deep zero-cost chain needs several pairwise fusion rounds;
        # max_passes=1 must stop early and report non-convergence.
        graph = zero_chain(5)
        bounded = optimize_graph(graph, max_passes=1)
        assert bounded.stats["converged"] is False
        full = optimize_graph(graph)
        assert full.stats["converged"] is True
        assert full.graph.size < bounded.graph.size
        # Fixed point: the whole zero-cost chain fuses into its head.
        assert full.graph.size == 2
        assert full.graph.total_cost() == graph.total_cost()
        assert (full.graph.total_activation_memory()
                == graph.total_activation_memory())

    def test_max_passes_validation(self):
        with pytest.raises(ValueError):
            PassManager(max_passes=0)

    def test_fusion_skips_terminal_and_mixed_direction(self, chain5_train):
        # chain5_train has unit costs everywhere: nothing is zero-cost, so
        # fusion must be a no-op and DCE must keep everything.
        result = optimize_graph(chain5_train)
        assert result.changed is False
        assert result.stats["fusion"] == 0
        assert result.stats["dce"] == 0


class TestProvenance:
    def test_identity_round_trip(self, chain5_train):
        n = chain5_train.size
        prov = NodeProvenance.identity(n)
        R = np.eye(n, dtype=np.uint8)
        S = np.zeros((n, n), dtype=np.uint8)
        matrices = ScheduleMatrices(R, S)
        decoded = prov.decode_matrices(chain5_train, matrices)
        assert (decoded.R == R).all() and (decoded.S == S).all()

    def test_compose_size_mismatch_rejected(self):
        a = NodeProvenance.identity(3)
        b = NodeProvenance.identity(4)
        with pytest.raises(ValueError):
            a.compose(b)

    def test_decode_width_mismatch_rejected(self, chain5):
        prov = NodeProvenance.identity(chain5.size)
        wrong = ScheduleMatrices(np.ones((2, 3), dtype=np.uint8),
                                 np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            prov.decode_matrices(chain5, wrong)

    def test_round_trip_under_repeated_fusion(self):
        # 5-node zero chain + loss fuses down to 2 nodes over multiple
        # rounds; a checkpoint-all schedule of the optimized graph must
        # decode to a *valid* original-graph schedule with the same cost.
        graph = zero_chain(5)
        result = optimize_graph(graph)
        assert result.graph.size == 2
        m = result.graph.size
        R = np.tril(np.ones((m, m), dtype=np.uint8))  # checkpoint-all
        S = np.triu(np.tril(np.ones((m, m), dtype=np.uint8)), k=0)
        S = np.zeros((m, m), dtype=np.uint8)
        for t in range(1, m):
            S[t, :t] = 1
        matrices = ScheduleMatrices(R, S)
        decoded = result.decode_matrices(matrices)
        assert decoded.num_nodes == graph.size
        assert decoded.num_stages == m
        violations = validate_correctness_constraints(
            graph, decoded, frontier_advancing=False)
        assert violations == []
        # Compute cost is preserved exactly: fused tails cost zero.
        orig_cost = sum(graph.cost(i) * int(decoded.R[:, i].sum())
                        for i in range(graph.size))
        opt_cost = sum(result.graph.cost(k) * int(matrices.R[:, k].sum())
                       for k in range(m))
        assert orig_cost == opt_cost

    def test_provenance_serializes(self):
        result = optimize_graph(zero_chain(3))
        payload = result.provenance.to_dict()
        assert payload["orig_to_opt"][0] == 0
        assert sorted(m for ms in payload["opt_to_orig"] for m in ms) == \
            list(range(zero_chain(3).size))


class TestLinter:
    def test_clean_preset(self, tiny_vgg_train):
        report = lint_graph(tiny_vgg_train)
        assert report.ok
        assert report.errors == 0

    def test_dead_node_warning(self):
        report = lint_graph(graph_with_dead_branch())
        codes = [d.code for d in report.diagnostics]
        assert codes.count("R001") == 2
        assert report.ok  # warnings only

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
    def test_solve_canonicalized_matches_raw_objective(self):
        from repro.experiments.presets import build_training_graph
        from repro.service import SolveService

        graph = build_training_graph("deepblock")
        budget = tight_budget(graph, 0.8)
        service = SolveService()
        raw = service.solve(graph, "checkmate_ilp", budget)
        canon = service.solve_canonicalized(graph, "checkmate_ilp", budget)
        assert canon.feasible and raw.feasible
        assert canon.compute_cost == raw.compute_cost
        assert canon.matrices.num_nodes == graph.size
        analysis = canon.extra["analysis"]
        assert analysis["nodes_removed"] > 0
        assert analysis["decoded_peak_memory"] == analysis["optimized_peak_memory"]
        violations = validate_correctness_constraints(
            graph, canon.matrices, frontier_advancing=False)
        assert violations == []

    def test_canonicalization_shrinks_the_formulation(self):
        from repro.experiments.presets import build_training_graph
        from repro.solvers import CompiledFormulation

        graph = build_training_graph("deepblock")
        raw = CompiledFormulation(graph).stats["nnz"]
        fused = CompiledFormulation(optimize_graph(graph).graph).stats["nnz"]
        reduction = 1.0 - fused / raw
        assert reduction >= MIN_NNZ_REDUCTION, (
            f"nnz {raw} -> {fused}: {reduction:.1%} shrink, "
            f"need {MIN_NNZ_REDUCTION:.0%}")

    def test_solve_canonicalized_unchanged_graph_falls_through(self, chain5_train):
        from repro.service import SolveService

        service = SolveService()
        result = service.solve_canonicalized(chain5_train, "checkpoint_all")
        assert result.feasible
        # No rewrite: a plain solve.
        assert service.statistics()["analysis"]["canonical_solves"] == 0

    def test_decoded_schedule_executes_bit_exact(self):
        from repro.execution import build_execution_report
        from repro.experiments.presets import (
            build_numeric_training_graph, build_training_graph)
        from repro.service import SolveService

        graph = build_training_graph("deepblock")
        budget = tight_budget(graph, 0.8)
        canon = SolveService().solve_canonicalized(
            graph, "checkmate_ilp", budget)
        numeric = build_numeric_training_graph("deepblock")
        report = build_execution_report(numeric, canon)
        assert report.executed
        assert report.outputs_match and report.max_abs_error == 0.0
        assert report.ok

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
