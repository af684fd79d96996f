"""Tests for the baseline heuristics of Table 1 and their generalizations."""

import pytest

from helpers import ample_budget, tight_budget

from repro.baselines import (
    STRATEGIES,
    ap_candidates,
    chen_greedy_checkpoints,
    chen_sqrt_n_checkpoints,
    revolve_storage_timeline,
    segment_checkpoint_schedule,
    solve_checkpoint_all,
    solve_chen_greedy,
    solve_chen_sqrt_n,
    solve_griewank_logn,
    training_graph_metadata,
)
from repro.core import schedule_peak_memory, validate_correctness_constraints
from repro.solvers import solve_ilp_rematerialization


class TestSelection:
    def test_sqrt_n_checkpoint_count(self, tiny_vgg_train):
        ckpts = chen_sqrt_n_checkpoints(tiny_vgg_train)
        n_fwd = tiny_vgg_train.meta["n_forward"]
        assert 1 <= len(ckpts) <= n_fwd
        assert all(0 <= c < n_fwd for c in ckpts)

    def test_sqrt_n_empty_candidates(self, tiny_vgg_train):
        assert chen_sqrt_n_checkpoints(tiny_vgg_train, candidates=[]) == set()

    def test_greedy_budget_controls_count(self, tiny_vgg_train):
        small_b = chen_greedy_checkpoints(tiny_vgg_train, 1.0)
        huge_b = chen_greedy_checkpoints(tiny_vgg_train, 1e15)
        assert len(small_b) >= len(huge_b)
        assert len(huge_b) == 0

    def test_ap_candidates_linear_graph(self, tiny_vgg_train):
        # On a linear network nearly every forward node is an articulation point.
        aps = ap_candidates(tiny_vgg_train)
        n_fwd = tiny_vgg_train.meta["n_forward"]
        assert len(aps) >= n_fwd // 2

    def test_ap_candidates_skip_connections(self, tiny_unet_train):
        aps = ap_candidates(tiny_unet_train)
        n_fwd = tiny_unet_train.meta["n_forward"]
        # U-Net's long skips leave only a handful of articulation points.
        assert len(aps) < n_fwd // 2

    def test_metadata_required(self, chain5):
        with pytest.raises(ValueError):
            training_graph_metadata(chain5)


class TestSegmentSchedule:
    def test_valid_for_arbitrary_checkpoints(self, tiny_vgg_train):
        ckpts = chen_sqrt_n_checkpoints(tiny_vgg_train)
        m = segment_checkpoint_schedule(tiny_vgg_train, ckpts)
        assert validate_correctness_constraints(tiny_vgg_train, m) == []

    def test_cost_close_to_one_extra_forward_pass(self, tiny_vgg_train):
        ckpts = chen_sqrt_n_checkpoints(tiny_vgg_train)
        m = segment_checkpoint_schedule(tiny_vgg_train, ckpts)
        extra = m.R.sum() - tiny_vgg_train.size
        n_fwd = tiny_vgg_train.meta["n_forward"]
        assert extra <= n_fwd + 2  # at most ~one extra forward pass of evaluations

    def test_fewer_checkpoints_less_memory(self, tiny_vgg_train):
        few = segment_checkpoint_schedule(tiny_vgg_train, chen_sqrt_n_checkpoints(tiny_vgg_train))
        all_ckpt = segment_checkpoint_schedule(
            tiny_vgg_train, range(tiny_vgg_train.meta["n_forward"] - 1))
        assert schedule_peak_memory(tiny_vgg_train, few) \
            <= schedule_peak_memory(tiny_vgg_train, all_ckpt)

    def test_invalid_checkpoint_rejected(self, tiny_vgg_train):
        with pytest.raises(ValueError):
            segment_checkpoint_schedule(tiny_vgg_train, {tiny_vgg_train.size + 5})


class TestStrategyDrivers:
    def test_checkpoint_all_no_recompute(self, tiny_vgg_train):
        r = solve_checkpoint_all(tiny_vgg_train)
        assert r.feasible and r.overhead == pytest.approx(1.0, rel=1e-9)

    def test_checkpoint_all_over_budget_flagged(self, tiny_vgg_train):
        r = solve_checkpoint_all(tiny_vgg_train, budget=tiny_vgg_train.constant_overhead + 10)
        assert not r.feasible

    def test_sqrt_n_saves_memory_over_checkpoint_all(self, tiny_vgg_train):
        all_r = solve_checkpoint_all(tiny_vgg_train)
        sqrt_r = solve_chen_sqrt_n(tiny_vgg_train)
        assert sqrt_r.feasible
        assert sqrt_r.peak_memory <= all_r.peak_memory
        assert sqrt_r.compute_cost >= all_r.compute_cost

    def test_greedy_search_improves_with_budget(self, tiny_vgg_train):
        loose = solve_chen_greedy(tiny_vgg_train, ample_budget(tiny_vgg_train))
        tight = solve_chen_greedy(tiny_vgg_train, tight_budget(tiny_vgg_train, 0.7))
        assert loose.feasible
        if tight.feasible:
            assert tight.compute_cost >= loose.compute_cost - 1e-9

    def test_greedy_records_search_trace(self, tiny_vgg_train):
        r = solve_chen_greedy(tiny_vgg_train, ample_budget(tiny_vgg_train))
        assert "search" in r.extra and len(r.extra["search"]) > 1

    def test_ap_variants_valid_on_nonlinear(self, tiny_unet_train):
        for key in ("ap_sqrt_n", "ap_greedy", "linearized_sqrt_n", "linearized_greedy"):
            result = STRATEGIES[key].solve(tiny_unet_train, ample_budget(tiny_unet_train))
            assert result.feasible
            assert validate_correctness_constraints(tiny_unet_train, result.matrices) == []

    def test_resnet_ap_variants_valid(self, tiny_resnet_train):
        result = STRATEGIES["ap_sqrt_n"].solve(tiny_resnet_train, ample_budget(tiny_resnet_train))
        assert result.feasible


class TestGriewank:
    def test_storage_timeline_slots_respected(self):
        order, storage = revolve_storage_timeline(16, slots=3)
        assert order == list(range(15, -1, -1))
        # At any backward position, at most `slots` snapshots are held.
        for pos in range(16):
            held = sum(1 for intervals in storage.values()
                       for (a, b) in intervals if a <= pos <= b)
            assert held <= 3

    def test_storage_timeline_single_slot(self):
        order, storage = revolve_storage_timeline(8, slots=1)
        assert order == list(range(7, -1, -1))

    def test_griewank_valid_on_linear(self, tiny_vgg_train):
        r = solve_griewank_logn(tiny_vgg_train)
        assert r.feasible
        assert validate_correctness_constraints(tiny_vgg_train, r.matrices) == []

    def test_griewank_rejects_nonlinear(self, tiny_unet_train):
        with pytest.raises(ValueError):
            solve_griewank_logn(tiny_unet_train)

    def test_griewank_trades_compute_for_memory(self, varied_chain_train):
        gw = solve_griewank_logn(varied_chain_train, slots=2)
        ca = solve_checkpoint_all(varied_chain_train)
        assert gw.compute_cost > ca.compute_cost
        assert gw.peak_memory <= ca.peak_memory

    def test_more_slots_less_recomputation(self, varied_chain_train):
        few = solve_griewank_logn(varied_chain_train, slots=1)
        many = solve_griewank_logn(varied_chain_train, slots=6)
        assert many.compute_cost <= few.compute_cost


class TestRegistry:
    def test_all_strategies_present(self):
        expected = {"checkpoint_all", "chen_sqrt_n", "chen_greedy", "griewank_logn",
                    "ap_sqrt_n", "ap_greedy", "linearized_sqrt_n", "linearized_greedy",
                    "checkmate_ilp", "checkmate_approx"}
        assert expected == set(STRATEGIES)

    def test_only_checkmate_is_fully_aware(self):
        for key, info in STRATEGIES.items():
            fully_aware = (info.general_graphs is True and info.cost_aware is True
                           and info.memory_aware is True)
            assert fully_aware == key.startswith("checkmate")

    def test_ilp_beats_or_matches_heuristics(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        ilp = solve_ilp_rematerialization(varied_chain_train, budget)
        assert ilp.feasible
        for key in ("chen_sqrt_n", "linearized_greedy", "griewank_logn"):
            result = STRATEGIES[key].solve(varied_chain_train, budget)
            if result.feasible and result.peak_memory <= budget:
                assert ilp.compute_cost <= result.compute_cost + 1e-9
