"""Tests for the MILP formulation and the optimal ILP solver."""

import numpy as np
import pytest

from helpers import ample_budget, below_liveness_budget, no_recompute_peak, tight_budget
from oracles import MILPFormulation, solve_branch_and_bound

from repro.core import (
    checkpoint_all_schedule,
    schedule_peak_memory,
    validate_correctness_constraints,
)
from repro.solvers import (
    InfeasibleBudgetError,
    solve_ilp_rematerialization,
    solve_lp_relaxation,
)


class TestFormulation:
    def test_variable_counts_frontier(self, chain5_train):
        f = MILPFormulation(chain5_train, ample_budget(chain5_train))
        n = chain5_train.size
        assert len(f.r_index) == n * (n + 1) // 2
        assert len(f.s_index) == n * (n - 1) // 2
        assert len(f.u_index) == n * (n + 1) // 2
        assert f.num_variables == (len(f.r_index) + len(f.s_index)
                                   + len(f.free_index) + len(f.u_index))

    def test_variable_counts_unpartitioned(self, chain5_train):
        n = chain5_train.size
        f = MILPFormulation(chain5_train, ample_budget(chain5_train),
                            frontier_advancing=False, num_stages=n)
        assert len(f.r_index) == n * n
        assert len(f.free_index) == n * chain5_train.num_edges

    def test_describe_mentions_dimensions(self, chain5_train):
        f = MILPFormulation(chain5_train, ample_budget(chain5_train))
        assert "vars=" in f.describe()

    def test_budget_below_overhead_rejected(self, tiny_vgg_train):
        with pytest.raises(InfeasibleBudgetError):
            MILPFormulation(tiny_vgg_train, tiny_vgg_train.constant_overhead - 1)

    def test_frontier_requires_full_stage_count(self, chain5_train):
        with pytest.raises(ValueError):
            MILPFormulation(chain5_train, ample_budget(chain5_train), num_stages=3)

    def test_build_shapes_consistent(self, chain5_train):
        f = MILPFormulation(chain5_train, ample_budget(chain5_train))
        arrays = f.build()
        assert arrays.A.shape[1] == f.num_variables
        assert arrays.A.shape[0] == len(arrays.constraint_lb) == len(arrays.constraint_ub)
        assert arrays.c.shape == arrays.lb.shape == arrays.ub.shape

    def test_decode_checkpoint_all_roundtrip(self, chain5_train):
        f = MILPFormulation(chain5_train, ample_budget(chain5_train))
        x = np.zeros(f.num_variables)
        m = checkpoint_all_schedule(chain5_train)
        for (t, i), idx in f.r_index.items():
            x[idx] = m.R[t, i]
        for (t, i), idx in f.s_index.items():
            x[idx] = m.S[t, i]
        decoded = f.decode_matrices(x)
        assert np.array_equal(decoded.R, m.R)
        assert np.array_equal(decoded.S, m.S)
        assert f.objective_value(x) == pytest.approx(chain5_train.total_cost())


class TestILPOptimality:
    def test_ample_budget_no_recomputation(self, varied_chain_train):
        result = solve_ilp_rematerialization(varied_chain_train,
                                             ample_budget(varied_chain_train))
        assert result.feasible
        assert result.compute_cost == pytest.approx(varied_chain_train.total_cost())
        assert result.overhead == pytest.approx(1.0)

    def test_schedule_is_valid_and_within_budget(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        result = solve_ilp_rematerialization(varied_chain_train, budget)
        assert result.feasible
        assert validate_correctness_constraints(varied_chain_train, result.matrices) == []
        assert schedule_peak_memory(varied_chain_train, result.matrices) <= budget

    def test_cost_monotone_in_budget(self, varied_chain_train):
        budgets = [tight_budget(varied_chain_train, f) for f in (0.9, 0.7, 0.58)]
        costs = []
        for b in budgets:
            r = solve_ilp_rematerialization(varied_chain_train, b)
            if r.feasible:
                costs.append(r.compute_cost)
        assert len(costs) >= 2
        assert all(costs[i] <= costs[i + 1] + 1e-9 for i in range(len(costs) - 1))
        assert costs[-1] > varied_chain_train.total_cost()

    def test_never_cheaper_than_checkpoint_all(self, chain5_train):
        result = solve_ilp_rematerialization(chain5_train, tight_budget(chain5_train, 0.7))
        assert result.compute_cost >= chain5_train.total_cost() - 1e-9

    def test_infeasible_budget_reported(self, chain5_train):
        result = solve_ilp_rematerialization(chain5_train, chain5_train.constant_overhead + 1)
        assert not result.feasible
        assert result.matrices is None

    def test_budget_below_overhead_reported(self, tiny_vgg_train):
        result = solve_ilp_rematerialization(tiny_vgg_train, 1)
        assert not result.feasible
        assert "infeasible-budget" in result.solver_status

    def test_diamond_graph_optimal(self, diamond_train):
        result = solve_ilp_rematerialization(diamond_train, tight_budget(diamond_train, 0.6))
        assert result.feasible
        assert validate_correctness_constraints(diamond_train, result.matrices) == []

    def test_plan_generated_and_consistent(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        result = solve_ilp_rematerialization(varied_chain_train, budget)
        assert result.plan is not None
        assert result.plan.total_computations() == int(result.matrices.R.sum())

    def test_unpartitioned_matches_partitioned_on_tiny_instance(self, chain5_train):
        budget = tight_budget(chain5_train, 0.6)
        part = solve_ilp_rematerialization(chain5_train, budget, frontier_advancing=True)
        unpart = solve_ilp_rematerialization(chain5_train, budget, frontier_advancing=False,
                                             time_limit_s=120)
        assert part.feasible and unpart.feasible
        # The frontier-advancing feasible set is a subset of the unpartitioned
        # one, so the unpartitioned optimum can only be as good or better.
        assert unpart.compute_cost <= part.compute_cost + 1e-6


    def test_lower_bound_is_in_compute_cost_units(self, varied_chain_train):
        # HiGHS solves the objective divided by the largest node cost; the
        # reported bound must be scaled back to the cost it bounds.
        budget = tight_budget(varied_chain_train, 0.6)
        result = solve_ilp_rematerialization(varied_chain_train, budget)
        assert result.solver_status == "optimal"
        lower = result.extra["objective_lower_bound"]
        assert lower <= result.compute_cost * (1 + 1e-9)
        assert result.compute_cost <= lower * (1 + 1e-4)


class TestCrossSolverAgreement:
    def test_branch_and_bound_matches_highs(self):
        from repro.autodiff import make_training_graph
        from repro.core import linear_graph
        graph = make_training_graph(linear_graph(3, cost=[1, 3, 2], memory=[2, 1, 3]))
        budget = tight_budget(graph, 0.75)
        highs = solve_ilp_rematerialization(graph, budget)
        assert highs.feasible
        formulation = MILPFormulation(graph, budget)
        bnb = solve_branch_and_bound(formulation.build(), max_nodes=2000)
        assert bnb.x is not None and bnb.proven_optimal
        assert formulation.objective_value(bnb.x) == pytest.approx(highs.compute_cost, rel=1e-6)

    def test_lp_relaxation_lower_bounds_ilp(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.65)
        lp = solve_lp_relaxation(varied_chain_train, budget)
        ilp = solve_ilp_rematerialization(varied_chain_train, budget)
        assert lp.feasible and ilp.feasible
        assert lp.objective <= ilp.compute_cost + 1e-6


class TestCertifyFirst:
    """The LP certificate in front of HiGHS: sound, and never a dead end.

    Every cell here sits below the graph's no-recompute peak, so the liveness
    certificate passes it on.  Below the varied chain's peak (98) its LP
    bound stays fractional: at 0.6 of its footprint the bound is 311.375 and
    the rounding costs 312, so that cell certifies at a 1% gap unless
    something takes the bound away.  VGG16's LP is tight below its peak, so
    its cells certify at the default gap.
    """

    #: The varied chain's certifying cell: (footprint fraction, mip_gap).
    CHAIN_CELL = (0.6, 0.01)

    @pytest.fixture
    def milp_calls(self, monkeypatch):
        import repro.solvers.ilp as ilp_module

        calls = []
        real_milp = ilp_module.milp

        def counting_milp(*args, **kwargs):
            calls.append(kwargs.get("options"))
            return real_milp(*args, **kwargs)

        monkeypatch.setattr(ilp_module, "milp", counting_milp)
        return calls

    @pytest.fixture
    def truncated_lp(self, monkeypatch):
        """A fresh LP cache whose relaxations all report a time-limit stop
        while still carrying their fractional point."""
        import dataclasses

        import repro.solvers.rounding_portfolio as portfolio

        real_lp = portfolio.solve_lp_relaxation

        def time_limited_lp(*args, **kwargs):
            return dataclasses.replace(real_lp(*args, **kwargs), status="status-1")

        monkeypatch.setattr(portfolio, "_lp_cache", portfolio.LPRelaxationCache())
        monkeypatch.setattr(portfolio, "solve_lp_relaxation", time_limited_lp)

    def test_certified_result_carries_its_bound(self, milp_calls):
        from repro.experiments import build_training_graph

        graph = build_training_graph("vgg16")
        budget = below_liveness_budget(graph, 0.75)
        result = solve_ilp_rematerialization(graph, budget)
        assert result.solver_status == "gap-certified"
        assert result.extra["certificate"] == "lp-gap"
        assert milp_calls == []
        assert result.extra["proven_optimal"] is True
        lower = result.extra["objective_lower_bound"]
        assert lower <= result.compute_cost <= lower * (1 + 1e-4)
        assert validate_correctness_constraints(graph, result.matrices) == []
        assert schedule_peak_memory(graph, result.matrices) <= budget

    def test_certificate_respects_the_gap(self, varied_chain_train, milp_calls):
        # At 0.6 the LP bound is 311.375 and the rounding costs 312: 0.2%
        # above it, outside the default gap but inside a 1% one.
        budget = tight_budget(varied_chain_train, 0.6)
        strict = solve_ilp_rematerialization(varied_chain_train, budget)
        assert strict.solver_status == "optimal"
        assert len(milp_calls) == 1
        loose = solve_ilp_rematerialization(varied_chain_train, budget, mip_gap=0.01)
        assert loose.solver_status == "gap-certified"
        assert len(milp_calls) == 1
        assert loose.compute_cost <= loose.extra["objective_lower_bound"] * 1.01

    def test_time_limited_lp_never_certifies(self, varied_chain_train, milp_calls,
                                             truncated_lp):
        fraction, gap = self.CHAIN_CELL
        budget = tight_budget(varied_chain_train, fraction)
        assert budget < no_recompute_peak(varied_chain_train)
        result = solve_ilp_rematerialization(varied_chain_train, budget, mip_gap=gap)
        assert len(milp_calls) == 1
        assert result.solver_status == "optimal"
        assert "proven_optimal" not in result.extra

    def test_lp_infeasible_budget_skips_highs(self, monkeypatch, milp_calls):
        from repro.autodiff import make_training_graph
        from repro.core import linear_graph
        import repro.solvers.warm as warm

        # Unique costs: a fresh compiled formulation and infeasibility memo.
        graph = make_training_graph(linear_graph(4, cost=[3, 1, 4, 1.5], memory=4))
        # Disable the arithmetic floor so the LP is what proves infeasibility.
        monkeypatch.setattr(warm, "budget_floor_margin", lambda g: float("inf"))
        budget = graph.constant_overhead + 1
        first = solve_ilp_rematerialization(graph, budget)
        assert not first.feasible and first.matrices is None
        assert first.solver_status == "infeasible-lp"
        # The LP verdict feeds the memo, which integral solves honour.
        second = solve_ilp_rematerialization(graph, budget)
        assert second.solver_status == "infeasible-memo"
        assert milp_calls == []

    def test_rounding_backstops_a_highs_time_limit(self, monkeypatch, varied_chain_train,
                                                   truncated_lp):
        import types

        import repro.solvers.ilp as ilp_module

        monkeypatch.setattr(ilp_module, "milp",
                            lambda *a, **k: types.SimpleNamespace(x=None, status=1))
        fraction, gap = self.CHAIN_CELL
        budget = tight_budget(varied_chain_train, fraction)
        assert budget < no_recompute_peak(varied_chain_train)
        result = solve_ilp_rematerialization(varied_chain_train, budget, mip_gap=gap)
        assert result.feasible
        assert result.solver_status == "time_limit-rounding-incumbent"
        assert "proven_optimal" not in result.extra
        assert validate_correctness_constraints(varied_chain_train, result.matrices) == []
        assert schedule_peak_memory(varied_chain_train, result.matrices) <= budget


class TestLivenessCertificate:
    """The no-recompute schedule answers every cell its peak fits, before
    any formulation, LP or HiGHS work."""

    @pytest.fixture
    def solver_work(self, monkeypatch):
        """A callable returning the MILP calls, LP-cache solves and
        formulation compiles made since the fixture was set up."""
        import repro.solvers.ilp as ilp_module
        from repro.solvers.rounding_portfolio import get_lp_relaxation_cache

        counts = {"milp": 0, "compile": 0}
        real_milp, real_compile = ilp_module.milp, ilp_module.formulation_and_arrays

        def counting_milp(*args, **kwargs):
            counts["milp"] += 1
            return real_milp(*args, **kwargs)

        def counting_compile(*args, **kwargs):
            counts["compile"] += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(ilp_module, "milp", counting_milp)
        monkeypatch.setattr(ilp_module, "formulation_and_arrays", counting_compile)
        lp_before = get_lp_relaxation_cache().stats()["solves"]
        return lambda: dict(
            counts, lp=get_lp_relaxation_cache().stats()["solves"] - lp_before)

    def test_fires_at_the_peak_with_no_solver_work(self, solver_work):
        from repro.autodiff import make_training_graph
        from repro.core import linear_graph

        # Unique costs: no LP of this graph is cached by an earlier test, so
        # a solve that reached the LP would move the LP-cache solve count.
        graph = make_training_graph(linear_graph(5, cost=[2, 7, 1, 8, 2.5],
                                                 memory=[3, 9, 1, 4, 6]))
        peak = no_recompute_peak(graph)
        result = solve_ilp_rematerialization(graph, peak)
        assert result.solver_status == "gap-certified"
        assert result.extra["certificate"] == "liveness"
        assert result.extra["proven_optimal"] is True
        assert result.compute_cost == graph.total_cost()
        assert result.extra["objective_lower_bound"] == graph.total_cost()
        assert result.peak_memory == peak <= result.budget
        assert validate_correctness_constraints(graph, result.matrices) == []
        assert (result.matrices.R == np.eye(graph.size)).all()
        assert solver_work() == {"milp": 0, "compile": 0, "lp": 0}

        # One byte below the peak the same graph takes the solver path.
        below = solve_ilp_rematerialization(graph, peak - 1)
        assert below.extra.get("certificate") != "liveness"
        assert solver_work()["compile"] == 1
        assert solver_work()["lp"] == 1

    def test_below_the_peak_costs_more_than_the_bound(self, varied_chain_train):
        graph = varied_chain_train
        budget = no_recompute_peak(graph) - 1
        result = solve_ilp_rematerialization(graph, budget)
        assert result.feasible
        assert result.extra.get("certificate") != "liveness"
        assert result.compute_cost > graph.total_cost()
        assert schedule_peak_memory(graph, result.matrices) <= budget

    def test_unpartitioned_path_never_takes_it(self):
        from repro.autodiff import make_training_graph
        from repro.core import linear_graph

        graph = make_training_graph(linear_graph(3, cost=[1, 3, 2], memory=[2, 1, 3]))
        result = solve_ilp_rematerialization(graph, ample_budget(graph),
                                             frontier_advancing=False)
        assert result.feasible
        assert "certificate" not in result.extra
        assert result.solver_status == "optimal"
