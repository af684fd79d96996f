"""Tests for warm-started sweeps, infeasibility pre-checks and Pareto tracing.

The acceptance criteria of the incremental-sweep PR live here:

* warm-started solves return the *same* objective as cold solves,
  cell-for-cell (warm seeding is a pure speed hint, never a result change);
* the objective is monotone non-increasing in budget for the exact solvers
  and the LP relaxation -- the invariant every warm shortcut leans on;
* the arithmetic minimum-feasible-budget floor agrees with what the solver
  itself reports, and the learned-infeasibility memo kicks in on repeats;
* parallel and sequential sweeps of the same cells produce identical
  schedules (deterministic descending-budget chain scheduling);
* the bisection Pareto tracer reaches the same frontier as a dense budget
  grid with at most half the solver calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import ample_budget, below_liveness_budget, no_recompute_peak
from oracles import (
    MILPFormulation,
    highs_milp,
    registry_with_bnb,
    solve_branch_and_bound_schedule,
)

from repro.autodiff import make_training_graph
from repro.core import linear_graph
from repro.core.schedule import validate_correctness_constraints
from repro.core.simulator import schedule_peak_memory
from repro.experiments import build_training_graph
from repro.service import SolveService, SweepCell
from repro.solvers import (
    FormulationCache,
    WarmSeed,
    budget_floor_margin,
    min_feasible_budget_floor,
    set_formulation_cache,
    solve_ilp_rematerialization,
    solve_lp_relaxation,
    tighten_schedule,
    warm_seed_from_result,
)
from repro.solvers.warm import _PROVEN_OPTIMAL_STATUSES


def make_chain_train(n=6, salt=0.0):
    """A small training graph; ``salt`` perturbs costs to force a fresh
    compiled formulation (the process-wide FormulationCache and its learned
    infeasibility memo are keyed by graph content)."""
    costs = [c + salt for c in [1, 50, 2, 30, 4, 10][:n]]
    fwd = linear_graph(n, cost=costs, memory=[8, 2, 16, 4, 32, 1][:n])
    return make_training_graph(fwd)


def assert_costs_close(a: float, b: float, rtol: float = 1e-4) -> None:
    assert abs(a - b) <= rtol * max(abs(a), abs(b), 1.0), (a, b)


# --------------------------------------------------------------------------- #
# Schedule tightening
# --------------------------------------------------------------------------- #
class TestTightenSchedule:
    def test_never_worse_and_still_valid(self):
        g = make_chain_train()
        res = solve_ilp_rematerialization(g, ample_budget(g))
        assert res.feasible
        tightened = tighten_schedule(g, res.matrices)
        assert validate_correctness_constraints(g, tightened) == []
        assert schedule_peak_memory(g, tightened) <= res.peak_memory
        from repro.core.schedule import schedule_compute_cost
        assert schedule_compute_cost(g, tightened) <= res.compute_cost + 1e-9

    def test_seed_peak_reflects_tightened_schedule(self):
        g = make_chain_train()
        # With an ample budget the MILP may keep dead values resident; the
        # seed must measure what the schedule *needs*, not the slack.
        res = solve_ilp_rematerialization(g, ample_budget(g))
        seed = warm_seed_from_result(g, res)
        assert seed is not None
        assert seed.proven_optimal
        assert seed.peak_memory <= res.peak_memory
        assert seed.fits(float(seed.peak_memory))

    def test_infeasible_result_yields_no_seed(self):
        g = make_chain_train()
        res = solve_ilp_rematerialization(g, float(g.constant_overhead))
        assert not res.feasible
        assert warm_seed_from_result(g, res) is None


# --------------------------------------------------------------------------- #
# Budget floor + learned-infeasibility memo
# --------------------------------------------------------------------------- #
class TestBudgetFloor:
    def test_floor_agrees_with_legacy_solver(self):
        # Ground truth without the pre-check: HiGHS on the loop-built legacy
        # arrays, with no floor shortcut or memo in between.
        g = make_chain_train(salt=0.125)
        floor = min_feasible_budget_floor(g)
        below = floor - budget_floor_margin(g) - 1.0
        raw = highs_milp(MILPFormulation(g, below).build())
        # The arithmetic floor never contradicts HiGHS: status 2 is infeasible.
        assert raw.x is None and raw.status == 2

    def test_floor_shortcut_then_memo(self):
        set_formulation_cache(FormulationCache())  # isolate the memo
        g = make_chain_train(salt=0.25)
        floor = min_feasible_budget_floor(g)
        below = floor - budget_floor_margin(g) - 1.0
        first = solve_ilp_rematerialization(g, below)
        assert not first.feasible
        assert first.solver_status == "infeasible-below-floor"
        assert first.extra["infeasible_shortcut"] == "floor"
        second = solve_ilp_rematerialization(g, below)
        assert second.solver_status == "infeasible-memo"
        # Even lower budgets hit the memo without any arithmetic re-derivation.
        third = solve_branch_and_bound_schedule(g, below - 5.0)
        assert not third.feasible
        assert third.solver_status in ("infeasible-below-floor", "infeasible-memo")

    def test_lp_relaxation_is_not_floored(self):
        # Fractional FREE lets the LP shed parent memory mid-stage, so the
        # integral floor must NOT short-circuit the relaxation.
        set_formulation_cache(FormulationCache())
        g = make_chain_train(salt=0.375)
        floor = min_feasible_budget_floor(g)
        below = floor - budget_floor_margin(g) - 1.0
        lp = solve_lp_relaxation(g, below)
        assert lp.status != "infeasible-below-floor"

    def test_solvable_just_above_floor(self):
        g = make_chain_train()
        floor = min_feasible_budget_floor(g)
        res = solve_ilp_rematerialization(g, floor + budget_floor_margin(g))
        # The floor is a lower bound, not the exact min-feasible budget, but
        # for a chain the bottleneck stage is achievable.
        assert res.feasible


# --------------------------------------------------------------------------- #
# Solver-level warm paths
# --------------------------------------------------------------------------- #
class TestWarmSolverPaths:
    """Seeds come from cells below the no-recompute peak: at or above it the
    liveness certificate answers before any seed is consulted."""

    def test_ilp_reuses_proven_fitting_seed(self):
        g = make_chain_train()
        cold_hi = solve_ilp_rematerialization(g, below_liveness_budget(g, 0.9))
        seed = warm_seed_from_result(g, cold_hi)
        budget = float(seed.peak_memory)  # the seed fits exactly
        warm = solve_ilp_rematerialization(g, budget, warm_start=seed)
        assert warm.solver_status == "warm-reused-optimal"
        assert warm.extra["warm_start"]["kind"] == "incumbent_prune"
        cold = solve_ilp_rematerialization(g, budget)
        assert cold.feasible
        assert_costs_close(warm.compute_cost, cold.compute_cost)

    def test_ilp_bound_skip_for_unproven_seed(self):
        # VGG16's LP bound is tight below its peak, so the LP certificate can
        # prove a seed there (the varied chain's stays fractional).
        g = build_training_graph("vgg16")
        cold_hi = solve_ilp_rematerialization(g, below_liveness_budget(g, 0.9))
        proven = warm_seed_from_result(g, cold_hi)
        unproven = WarmSeed(
            matrices=proven.matrices, objective=proven.objective,
            peak_memory=proven.peak_memory, proven_optimal=False,
            source_budget=proven.source_budget, source_status="node-limit")
        budget = float(unproven.peak_memory)
        warm = solve_ilp_rematerialization(g, budget, warm_start=unproven)
        # The LP certificate proves the seed gap-optimal without a MILP solve.
        assert warm.solver_status == "gap-certified"
        assert warm.extra["warm_start"]["kind"] == "bound_skip"
        assert warm.extra["proven_optimal"] is True
        cold = solve_ilp_rematerialization(g, budget)
        assert_costs_close(warm.compute_cost, cold.compute_cost)

    def test_ilp_ignores_non_fitting_seed(self):
        g = make_chain_train()
        cold_hi = solve_ilp_rematerialization(g, ample_budget(g))
        seed = warm_seed_from_result(g, cold_hi)
        floor = min_feasible_budget_floor(g)
        tight = floor + budget_floor_margin(g)
        if seed.fits(tight):
            pytest.skip("seed fits every budget on this graph")
        warm = solve_ilp_rematerialization(g, tight, warm_start=seed)
        cold = solve_ilp_rematerialization(g, tight)
        assert warm.feasible == cold.feasible
        if cold.feasible:
            assert_costs_close(warm.compute_cost, cold.compute_cost)

    def test_bnb_reuses_proven_fitting_seed(self):
        g = make_chain_train(n=4)
        cold_hi = solve_branch_and_bound_schedule(g, ample_budget(g))
        seed = warm_seed_from_result(g, cold_hi)
        assert seed is not None and seed.proven_optimal
        budget = float(seed.peak_memory)
        warm = solve_branch_and_bound_schedule(g, budget, warm_start=seed)
        assert warm.solver_status == "warm-reused-optimal"
        assert warm.extra["nodes_explored"] == 0
        cold = solve_branch_and_bound_schedule(g, budget)
        assert_costs_close(warm.compute_cost, cold.compute_cost)

    def test_bnb_cutoff_with_unproven_seed_matches_cold(self):
        g = make_chain_train(n=4)
        cold_hi = solve_branch_and_bound_schedule(g, ample_budget(g))
        proven = warm_seed_from_result(g, cold_hi)
        unproven = WarmSeed(
            matrices=proven.matrices, objective=proven.objective,
            peak_memory=proven.peak_memory, proven_optimal=False,
            source_budget=proven.source_budget, source_status="node-limit")
        budget = float(unproven.peak_memory)
        warm = solve_branch_and_bound_schedule(g, budget, warm_start=unproven)
        cold = solve_branch_and_bound_schedule(g, budget)
        assert warm.feasible and cold.feasible
        assert_costs_close(warm.compute_cost, cold.compute_cost)
        # A warm B&B with a cutoff must never return worse than the seed.
        assert warm.compute_cost <= unproven.objective * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# Budget monotonicity
# --------------------------------------------------------------------------- #
class TestBudgetMonotonicity:
    """Objective non-increasing in budget -- the invariant behind every
    warm-start shortcut.  Feasibility must also be monotone (once feasible,
    larger budgets stay feasible)."""

    def _budgets(self, g, k=4):
        lo = min_feasible_budget_floor(g) + budget_floor_margin(g)
        hi = float(ample_budget(g))
        return list(np.linspace(lo, hi, k))

    @pytest.mark.parametrize("preset", ["linear_mlp", "linear_cnn"])
    def test_ilp_monotone_on_presets(self, preset):
        g = build_training_graph(preset)
        results = [solve_ilp_rematerialization(g, b) for b in self._budgets(g)]
        feas = [r.feasible for r in results]
        assert feas == sorted(feas)  # once True, stays True
        costs = [r.compute_cost for r in results if r.feasible]
        assert costs, "no feasible budget in the sampled range"
        for prev, nxt in zip(costs, costs[1:]):
            assert nxt <= prev * (1 + 5e-4)

    def test_bnb_monotone_on_chain(self):
        g = make_chain_train(n=5)
        results = [solve_branch_and_bound_schedule(g, b)
                   for b in self._budgets(g)]
        costs = [r.compute_cost for r in results if r.feasible]
        assert costs
        for prev, nxt in zip(costs, costs[1:]):
            assert nxt <= prev * (1 + 5e-4)

    @pytest.mark.parametrize("graph_factory", [
        make_chain_train, lambda: build_training_graph("linear_mlp")])
    def test_lp_relaxation_monotone(self, graph_factory):
        g = graph_factory()
        results = [solve_lp_relaxation(g, b) for b in self._budgets(g)]
        objs = [r.objective for r in results if r.feasible]
        assert objs
        for prev, nxt in zip(objs, objs[1:]):
            assert nxt <= prev * (1 + 5e-4)


# --------------------------------------------------------------------------- #
# Service-level warm sweeps
# --------------------------------------------------------------------------- #
class TestWarmSweepService:
    def _cells(self, g, k=6):
        """``k`` cells from the budget floor up to just below the no-recompute
        peak, where every cell reaches the solver and can be warm-seeded."""
        lo = min_feasible_budget_floor(g) + budget_floor_margin(g)
        hi = float(no_recompute_peak(g) - 1)
        return [SweepCell("checkmate_ilp", b) for b in np.linspace(lo, hi, k)]

    def test_warm_equals_cold_cell_for_cell(self):
        g = build_training_graph("linear_cnn")
        cells = self._cells(g)
        warm_svc, cold_svc = SolveService(), SolveService()
        warm = warm_svc.sweep(g, cells, parallel=False, warm_start=True)
        cold = cold_svc.sweep(g, cells, parallel=False, warm_start=False)
        for w, c in zip(warm, cold):
            assert w.feasible == c.feasible
            if w.feasible:
                assert_costs_close(w.compute_cost, c.compute_cost)
        assert warm_svc.statistics()["warm_seeds"] > 0
        assert cold_svc.statistics()["warm_seeds"] == 0

    def test_parallel_equals_sequential(self):
        g = make_chain_train()
        budgets = [float(b) for b in
                   np.linspace(min_feasible_budget_floor(g) + budget_floor_margin(g),
                               ample_budget(g), 4)]
        cells = ([SweepCell("checkmate_ilp", b) for b in budgets]
                 + [SweepCell("checkmate_bnb", b) for b in budgets])
        seq_svc = SolveService(registry=registry_with_bnb())
        par_svc = SolveService(registry=registry_with_bnb())
        seq = seq_svc.sweep(g, cells, parallel=False)
        par = par_svc.sweep(g, cells, parallel=True, max_workers=4)
        for s, p in zip(seq, par):
            assert s.feasible == p.feasible
            if s.feasible:
                assert_costs_close(s.compute_cost, p.compute_cost)
                assert s.peak_memory == p.peak_memory

    def test_warm_counters_move(self):
        g = make_chain_train()
        svc = SolveService()
        hi = no_recompute_peak(g) - 0.5
        svc.sweep(g, [SweepCell("checkmate_ilp", hi),
                      SweepCell("checkmate_ilp", hi - 0.5)], parallel=False)
        stats = svc.statistics()
        assert stats["warm_seeds"] >= 1
        assert stats["incumbent_prunes"] + stats["bound_skips"] >= 1

    def test_infeasible_shortcut_counter_moves(self):
        set_formulation_cache(FormulationCache())
        g = make_chain_train(salt=0.5)
        svc = SolveService()
        below = min_feasible_budget_floor(g) - budget_floor_margin(g) - 2.0
        res = svc.solve(g, "checkmate_ilp", below)
        assert not res.feasible
        assert svc.statistics()["infeasible_shortcuts"] == 1

    def test_warm_result_statuses_stay_proven(self):
        # Warm shortcut statuses must be members of the proven-optimal set,
        # otherwise seeds derived *from* warm results would lose provenness
        # and chains would degrade to cutoff-only after the first reuse.
        # VGG16 below its no-recompute peak: the LP certificate settles cells.
        g = build_training_graph("vgg16")
        svc = SolveService()
        cells = [SweepCell("checkmate_ilp", float(below_liveness_budget(g, f)))
                 for f in (0.55, 0.75, 0.85)]
        results = svc.sweep(g, cells, parallel=False)
        for r in results:
            if r.feasible and r.extra.get("warm_start", {}).get("kind") in (
                    "incumbent_prune", "bound_skip"):
                assert r.solver_status in _PROVEN_OPTIMAL_STATUSES
        # A cell the LP certificate settled seeds its neighbours as proven,
        # so the next fitting budget reuses it with no LP at all.
        certified = [r for r in results if r.solver_status == "gap-certified"
                     and r.extra["certificate"] == "lp-gap"]
        assert certified
        assert "gap-certified" in _PROVEN_OPTIMAL_STATUSES
        seed = warm_seed_from_result(g, certified[0])
        assert seed.proven_optimal
        reused = solve_ilp_rematerialization(g, float(seed.peak_memory),
                                             warm_start=seed)
        assert reused.solver_status == "warm-reused-optimal"
        assert_costs_close(reused.compute_cost, seed.objective)

    def test_cache_hits_do_not_recount_warm(self):
        g = make_chain_train()
        svc = SolveService()
        hi = float(ample_budget(g))
        svc.sweep(g, [SweepCell("checkmate_ilp", hi + 64.0),
                      SweepCell("checkmate_ilp", hi)], parallel=False)
        seeds_before = svc.statistics()["warm_seeds"]
        svc.solve(g, "checkmate_ilp", hi)  # cache hit replays the warm result
        assert svc.statistics()["warm_seeds"] == seeds_before

    def test_bounded_cache_evicts_oldest_and_keeps_solving(self):
        from repro.service import PlanCache
        g = make_chain_train()
        svc = SolveService(cache=PlanCache(max_entries=2))
        hi = float(ample_budget(g))
        for b in (hi + 128.0, hi + 64.0, hi):
            svc.solve(g, "checkmate_ilp", b)
        stats = svc.cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert svc.solve(g, "checkmate_ilp", hi).feasible


# --------------------------------------------------------------------------- #
# Pareto tracing
# --------------------------------------------------------------------------- #
class TestParetoTracer:
    def test_matches_dense_grid_with_half_the_calls(self):
        g = build_training_graph("linear_cnn")
        front = SolveService().pareto(g, "checkmate_ilp")
        # Rebuild the dense grid the trace's (low, high, resolution) implies.
        steps = int(round((front.high - front.low) / front.resolution))
        grid = list(np.linspace(front.low, front.high, steps + 1))
        dense_svc = SolveService()
        dense = dense_svc.sweep(
            g, [SweepCell("checkmate_ilp", b) for b in grid], parallel=False)

        # Every probed point matches the dense cell at the same budget.
        by_idx = {int(round((p.budget - front.low) / front.resolution)): p
                  for p in front.points}
        for idx, point in by_idx.items():
            cell = dense[idx]
            assert point.feasible == cell.feasible
            if point.feasible:
                assert_costs_close(point.compute_cost, cell.compute_cost,
                                   rtol=1e-3)

        # Same frontier: the distinct cost steps agree.
        def steps_of(costs, rtol=1e-3):
            out = []
            for c in costs:
                if not out or abs(c - out[-1]) > rtol * max(abs(out[-1]), 1.0):
                    out.append(c)
            return out

        dense_steps = steps_of([r.compute_cost for r in dense if r.feasible])
        front_steps = steps_of([p.compute_cost for p in front.feasible_points])
        assert len(dense_steps) == len(front_steps)
        for a, b in zip(dense_steps, front_steps):
            assert_costs_close(a, b, rtol=1e-3)

        # ...with at most half the solver calls of the dense grid.
        assert front.solver_calls <= (steps + 1) // 2

    def test_costs_monotone_and_knees_decreasing(self):
        g = make_chain_train()
        front = SolveService().pareto(g, "checkmate_ilp")
        feas = front.feasible_points
        assert feas
        for prev, nxt in zip(feas, feas[1:]):
            assert nxt.compute_cost <= prev.compute_cost * (1 + 5e-4)
        knees = front.knees()
        assert len(knees) >= 1
        for prev, nxt in zip(knees, knees[1:]):
            assert nxt.compute_cost < prev.compute_cost

    def test_infeasible_low_endpoint_is_reported(self):
        set_formulation_cache(FormulationCache())
        g = make_chain_train(salt=0.625)
        floor = min_feasible_budget_floor(g)
        low = floor - 50 * budget_floor_margin(g)
        front = SolveService().pareto(g, "checkmate_ilp", low=low)
        assert front.points[0].budget == pytest.approx(low)
        assert not front.points[0].feasible
        assert front.feasible_points  # the upper end of the range still solves

    def test_round_trip_to_dict(self):
        g = make_chain_train()
        front = SolveService().pareto(g, "checkmate_ilp")
        payload = front.to_dict()
        assert payload["num_points"] == len(front.points)
        assert payload["points"][0]["budget"] == front.points[0].budget
        assert payload["solver_calls"] == front.solver_calls

    def test_rejects_bad_inputs(self):
        g = make_chain_train()
        svc = SolveService()
        with pytest.raises(ValueError, match="budget knob"):
            svc.pareto(g, "min_r")
        with pytest.raises(ValueError, match="resolution"):
            svc.pareto(g, "checkmate_ilp", resolution=-1.0)
        with pytest.raises(ValueError, match="empty"):
            svc.pareto(g, "checkmate_ilp", low=100.0, high=50.0)

    def test_trace_starts_at_the_no_recompute_peak(self):
        g = make_chain_train()
        peak = no_recompute_peak(g)
        front = SolveService().pareto(g, "checkmate_ilp")
        assert front.high == peak
        top = front.points[-1]
        assert top.budget == peak
        assert top.compute_cost == g.total_cost()
        assert top.solver_status == "gap-certified"
        assert all(p.budget < peak for p in front.points[:-1])
        # A range reaching past the peak records its flat step as one point.
        wide = SolveService().pareto(g, "checkmate_ilp", high=2.0 * peak)
        above = [p for p in wide.points if p.budget >= peak]
        assert [p.budget for p in above] == [peak]
        assert wide.points == front.points

    def test_strategy_short_of_the_bound_is_traced_past_the_peak(self):
        # The fixed-threshold rounding misses sum(C) at the varied chain's
        # no-recompute peak, so the front above it is not known to be flat.
        from repro.core.schedule import checkpoint_all_schedule

        g = make_chain_train()
        peak = no_recompute_peak(g)
        front = SolveService().pareto(g, "checkmate_approx")
        at_peak = next(p for p in front.points if p.budget == peak)
        assert at_peak.compute_cost > g.total_cost()
        assert front.high == schedule_peak_memory(g, checkpoint_all_schedule(g))
        assert front.points[-1].budget == front.high

    def test_uncached_trace_warm_seeds_from_its_own_probes(self):
        # The trace seeds each probe from its own larger-budget results, so
        # a service without a plan cache warm-seeds as a cached one does.
        g = make_chain_train()
        uncached = SolveService(cache=None)
        front = uncached.pareto(g, "checkmate_ilp")
        assert uncached.statistics()["warm_seeds"] >= 1
        cached = SolveService().pareto(g, "checkmate_ilp")
        assert [(p.budget, p.feasible, p.compute_cost) for p in front.points] == [
            (p.budget, p.feasible, p.compute_cost) for p in cached.points]

    def test_warm_seeding_fires_during_trace(self):
        # The trace stays below the no-recompute peak, where linear_cnn's
        # front is one flat step; the varied chain has five knees there.
        g = make_chain_train()
        svc = SolveService()
        front = svc.pareto(g, "checkmate_ilp")
        stats = svc.statistics()
        assert stats["warm_seeds"] >= 1
        assert front.solver_calls == stats["solver_calls"]
