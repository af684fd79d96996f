"""Tests for the experiment harness (CI-scale versions of each paper artifact)."""

import pytest

from helpers import tight_budget

from repro.experiments import (
    approximation_ratio_table,
    budget_grid,
    budget_sweep,
    build_training_graph,
    format_sweep,
    format_strategy_matrix,
    integrality_gap_experiment,
    max_batch_size,
    memory_breakdown_table,
    memory_timeline,
    naive_rounding_study,
    preset_model,
    render_schedule_ascii,
    rounding_comparison,
    schedule_visualization,
    strategy_matrix_rows,
)
from repro.experiments.integrality_gap import unit_linear_training_graph
from repro.experiments.max_batch import cost_cap
from repro.core import checkpoint_all_schedule
from repro.models import linear_cnn, vgg16


class TestPresets:
    def test_preset_model_builds(self):
        g = preset_model("vgg16", scale="ci")
        assert g.size > 10

    def test_preset_override(self):
        g = preset_model("vgg16", batch_size=3, resolution=32)
        assert g.meta["batch_size"] == 3

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_model("inceptionXXL")

    def test_build_training_graph_from_key_and_graph(self):
        a = build_training_graph("vgg16", batch_size=1, resolution=32)
        b = build_training_graph(vgg16(batch_size=1, resolution=32))
        assert a.size == b.size
        assert "grad_index" in a.meta

    def test_deepblock_preset_has_repeated_fusable_blocks(self):
        from repro.analysis import isomorphic_segment_groups, lint_graph

        graph = build_training_graph("deepblock")
        # Each block carries a zero-cost identity alias plus the head
        # flatten: the linter reports them as C002 fusion candidates.
        fusable = [d for d in lint_graph(graph).diagnostics if d.code == "C002"]
        assert len(fusable) >= 5
        # And the blocks are structurally identical, so they group.
        groups = isomorphic_segment_groups(graph)
        assert any(len(segs) > 1 for segs in groups.values())


class TestBudgetSweep:
    def test_budget_grid_monotone_and_above_overhead(self, tiny_vgg_train):
        grid = budget_grid(tiny_vgg_train, num_budgets=4)
        assert grid == sorted(grid)
        assert all(b > tiny_vgg_train.constant_overhead for b in grid)

    def test_sweep_points_and_formatting(self, tiny_vgg_train):
        budgets = budget_grid(tiny_vgg_train, num_budgets=2)
        points = budget_sweep(tiny_vgg_train, budgets,
                              strategies=("checkpoint_all", "chen_sqrt_n", "checkmate_approx"),
                              ilp_time_limit_s=10)
        assert len(points) == 6
        feasible = [p for p in points if p.feasible]
        assert feasible
        assert all(p.overhead >= 1.0 - 1e-9 for p in feasible)
        text = format_sweep(points)
        assert "checkmate_approx" in text

    def test_linear_only_strategies_skipped_on_nonlinear(self, tiny_unet_train):
        budgets = budget_grid(tiny_unet_train, num_budgets=1)
        points = budget_sweep(tiny_unet_train, budgets,
                              strategies=("chen_sqrt_n", "griewank_logn", "linearized_sqrt_n"))
        assert {p.strategy for p in points} == {"linearized_sqrt_n"}

    def test_checkmate_never_worse_than_heuristics(self, tiny_vgg_train):
        budgets = budget_grid(tiny_vgg_train, num_budgets=2, low_fraction=0.6)
        points = budget_sweep(tiny_vgg_train, budgets,
                              strategies=("linearized_greedy", "checkmate_approx"))
        by_budget = {}
        for p in points:
            by_budget.setdefault(p.budget, {})[p.strategy] = p
        for budget, entries in by_budget.items():
            cm, base = entries.get("checkmate_approx"), entries.get("linearized_greedy")
            if cm and base and cm.feasible and base.feasible:
                assert cm.overhead <= base.overhead + 0.05


class TestMaxBatch:
    def test_max_batch_monotone_in_budget(self):
        builder = lambda b: linear_cnn(num_layers=5, batch_size=b, resolution=32, channels=16)
        small = max_batch_size(builder, "checkpoint_all", budget=32 * 2**20, max_batch=64)
        large = max_batch_size(builder, "checkpoint_all", budget=128 * 2**20, max_batch=64)
        assert large >= small >= 1

    def test_remat_allows_larger_batches(self):
        builder = lambda b: linear_cnn(num_layers=6, batch_size=b, resolution=32, channels=16)
        budget = 48 * 2**20
        baseline = max_batch_size(builder, "checkpoint_all", budget=budget, max_batch=128)
        remat = max_batch_size(builder, "linearized_greedy", budget=budget, max_batch=128)
        assert remat >= baseline

    def test_impossible_budget_returns_zero(self):
        builder = lambda b: linear_cnn(num_layers=4, batch_size=b, resolution=32, channels=16)
        assert max_batch_size(builder, "checkpoint_all", budget=1024, max_batch=8) == 0

    def test_cost_cap_formula(self, tiny_vgg_train):
        cap = cost_cap(tiny_vgg_train)
        assert cap == pytest.approx(2 * tiny_vgg_train.forward_cost()
                                    + tiny_vgg_train.backward_cost())


class TestTablesAndFigures:
    def test_strategy_matrix_rows(self):
        rows = strategy_matrix_rows()
        assert len(rows) == 10
        text = format_strategy_matrix()
        assert "cost aware" in text and "checkmate_ilp" in text

    def test_memory_breakdown_table(self):
        graphs = {"vgg16": vgg16(batch_size=4, resolution=32)}
        breakdowns = memory_breakdown_table(graphs)
        assert len(breakdowns) == 1 and breakdowns[0].total > 0

    def test_memory_timeline(self, varied_chain_train):
        timeline = memory_timeline(varied_chain_train,
                                   budget=tight_budget(varied_chain_train, 0.7),
                                   ilp_time_limit_s=20)
        assert timeline.retain_all.peak_memory > 0
        assert timeline.rematerialize_feasible
        assert timeline.rematerialized.peak_memory <= timeline.retain_all.peak_memory
        assert timeline.peak_reduction_bytes >= 0
        assert timeline.runtime_increase >= 1.0 - 1e-9

    def test_schedule_render_ascii(self, varied_chain_train):
        art = render_schedule_ascii(checkpoint_all_schedule(varied_chain_train))
        lines = art.split("\n")
        assert len(lines) == varied_chain_train.size
        assert lines[0].startswith("#")

    def test_schedule_visualization(self, varied_chain_train):
        viz = schedule_visualization(varied_chain_train, tight_budget(varied_chain_train, 0.7),
                                     strategies=("checkpoint_all", "checkmate_ilp"),
                                     ilp_time_limit_s=20)
        assert set(viz.renders) == {"checkpoint_all", "checkmate_ilp"}
        assert viz.recompute_counts["checkmate_ilp"] >= viz.recompute_counts["checkpoint_all"]
        assert "===" in viz.side_by_side()

    def test_approximation_ratio_table(self, varied_chain_train):
        rows = approximation_ratio_table({"chain": varied_chain_train},
                                         strategies=("linearized_greedy", "checkmate_approx"),
                                         num_budgets=2, ilp_time_limit_s=20)
        assert len(rows) == 1
        row = rows[0]
        assert row.budgets_evaluated >= 1
        for ratio in row.ratios.values():
            assert ratio >= 1.0 - 1e-6

    def test_rounding_comparison(self, varied_chain_train):
        comp = rounding_comparison(varied_chain_train, tight_budget(varied_chain_train, 0.65),
                                   num_randomized_samples=4, include_ilp=False)
        assert comp.checkpoint_all_cost > 0
        assert comp.deterministic_cost is not None
        assert len(comp.randomized_points) == 4

    def test_naive_rounding_study(self, varied_chain_train):
        stats = naive_rounding_study(varied_chain_train, tight_budget(varied_chain_train, 0.6),
                                     num_samples=50)
        assert stats["randomized"]["num_samples"] == 50
        # Naive rounding is almost never feasible (the paper observes a rate of
        # exactly zero on VGG16); on this tiny graph a small residual rate can
        # remain, but it must stay far below the two-phase success rate.
        assert stats["randomized"]["num_feasible"] <= 0.2 * 50


class TestIntegralityGap:
    def test_unit_instance_shape(self):
        g = unit_linear_training_graph(8)
        assert g.size == 16
        assert set(g.cost_vector) == {1.0}
        assert set(g.memory_vector) == {1.0}

    def test_partitioned_gap_small(self):
        result = integrality_gap_experiment(budget=4, include_unpartitioned=False,
                                            time_limit_s=60)
        assert result.partitioned_gap is not None
        assert 1.0 <= result.partitioned_gap < 2.5
        assert result.partitioned_solve_time_s < 60
