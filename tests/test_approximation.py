"""Tests for the LP relaxation, two-phase rounding and min-R completion."""

import numpy as np
import pytest

from helpers import ample_budget, tight_budget

from repro.core import (
    checkpoint_all_schedule,
    schedule_peak_memory,
    validate_correctness_constraints,
)
from repro.solvers import (
    checkpoint_set_to_schedule,
    naive_rounding_feasibility,
    randomized_rounding_samples,
    solve_ilp_rematerialization,
    solve_lp_relaxation,
    solve_min_r,
    solve_rounding_portfolio,
)


class TestMinR:
    def test_empty_checkpoints_recompute_everything_needed(self, chain5_train):
        n = chain5_train.size
        result = solve_min_r(chain5_train, np.zeros((n, n)))
        assert validate_correctness_constraints(chain5_train, result) == []
        # With no checkpoints, later stages must recompute long dependency chains.
        assert result.total_evaluations() > n

    def test_full_checkpoints_compute_once(self, chain5_train):
        full = checkpoint_all_schedule(chain5_train)
        result = solve_min_r(chain5_train, full.S)
        assert result.total_evaluations() == chain5_train.size

    def test_minimality_every_one_is_forced(self, diamond_train):
        # Removing any R entry (other than the diagonal) from the min-R solution
        # must violate a constraint -- i.e. the completion is minimal.
        n = diamond_train.size
        S = np.zeros((n, n), dtype=np.uint8)
        S[3:, 2] = 1
        result = solve_min_r(diamond_train, S)
        base_violations = validate_correctness_constraints(diamond_train, result)
        assert base_violations == []
        R = result.R
        for t in range(n):
            for i in range(t):
                if R[t, i]:
                    mutated = result.copy()
                    mutated.R[t, i] = 0
                    assert validate_correctness_constraints(diamond_train, mutated), \
                        f"R[{t},{i}] was not necessary"

    def test_bad_shape_rejected(self, chain5_train):
        with pytest.raises(ValueError):
            solve_min_r(chain5_train, np.zeros((3, 3)))

    def test_checkpoint_set_to_schedule_valid(self, chain5_train):
        m = checkpoint_set_to_schedule(chain5_train, {2, 4})
        assert validate_correctness_constraints(chain5_train, m) == []

    def test_checkpoint_set_out_of_range(self, chain5_train):
        with pytest.raises(ValueError):
            checkpoint_set_to_schedule(chain5_train, {999})


class TestLPRelaxation:
    def test_fractional_solution_in_bounds(self, varied_chain_train):
        lp = solve_lp_relaxation(varied_chain_train, tight_budget(varied_chain_train, 0.6))
        assert lp.feasible
        assert np.all(lp.R_fractional >= -1e-8) and np.all(lp.R_fractional <= 1 + 1e-8)
        assert np.all(lp.S_fractional >= -1e-8) and np.all(lp.S_fractional <= 1 + 1e-8)

    def test_objective_at_least_ideal_cost(self, varied_chain_train):
        lp = solve_lp_relaxation(varied_chain_train, tight_budget(varied_chain_train, 0.6))
        assert lp.objective >= varied_chain_train.total_cost() - 1e-6

    def test_infeasible_budget(self, chain5_train):
        lp = solve_lp_relaxation(chain5_train, 1)
        assert not lp.feasible
        assert lp.R_fractional is None


def _approx(graph, budget, **kwargs):
    """The paper's approximation: the portfolio's fixed 0.5 threshold."""
    return solve_rounding_portfolio(graph, budget, scheme="fixed_half", **kwargs)


class TestTwoPhaseRounding:
    def test_deterministic_rounding_valid(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        lp = solve_lp_relaxation(varied_chain_train, budget)
        result = _approx(varied_chain_train, budget, lp_result=lp)
        assert result.matrices is not None
        assert validate_correctness_constraints(varied_chain_train, result.matrices) == []

    def test_randomized_rounding_valid(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        lp = solve_lp_relaxation(varied_chain_train, budget)
        sample, = randomized_rounding_samples(varied_chain_train, budget, lp,
                                              num_samples=1, seed=0)
        assert validate_correctness_constraints(varied_chain_train, sample.matrices) == []

    def test_unknown_scheme_rejected(self, varied_chain_train):
        with pytest.raises(ValueError):
            solve_rounding_portfolio(varied_chain_train, 100, scheme="magic")

    def test_approx_within_budget_and_valid(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        result = _approx(varied_chain_train, budget)
        assert result.feasible
        assert schedule_peak_memory(varied_chain_train, result.matrices) <= budget
        assert validate_correctness_constraints(varied_chain_train, result.matrices) == []

    def test_approx_never_beats_ilp(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.6)
        approx = _approx(varied_chain_train, budget)
        ilp = solve_ilp_rematerialization(varied_chain_train, budget)
        assert approx.compute_cost >= ilp.compute_cost - 1e-9

    def test_approx_close_to_optimal_on_chain(self, varied_chain_train):
        # Table 2: two-phase deterministic rounding is within a few percent of optimal.
        budget = tight_budget(varied_chain_train, 0.6)
        approx = _approx(varied_chain_train, budget)
        ilp = solve_ilp_rematerialization(varied_chain_train, budget)
        assert approx.compute_cost / ilp.compute_cost < 1.5

    def test_allowance_validation(self, varied_chain_train):
        with pytest.raises(ValueError):
            _approx(varied_chain_train, 100, allowance=1.5)

    def test_infeasible_lp_propagates(self, chain5_train):
        result = _approx(chain5_train, chain5_train.constant_overhead + 1)
        assert not result.feasible
        assert result.solver_status.startswith("lp-")

    def test_reuses_precomputed_lp(self, varied_chain_train):
        budget = ample_budget(varied_chain_train)
        lp = solve_lp_relaxation(varied_chain_train, budget * 0.9)
        result = _approx(varied_chain_train, budget, lp_result=lp)
        assert result.feasible
        assert result.extra["lp_objective"] == lp.objective


class TestRoundingStudies:
    def test_randomized_samples_reported(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.7)
        lp = solve_lp_relaxation(varied_chain_train, budget * 0.9)
        samples = randomized_rounding_samples(varied_chain_train, budget, lp,
                                              num_samples=5, seed=1)
        assert len(samples) == 5
        for s in samples:
            assert s.compute_cost >= varied_chain_train.total_cost() - 1e-9
            assert validate_correctness_constraints(varied_chain_train, s.matrices) == []

    def test_naive_rounding_rarely_feasible(self, varied_chain_train):
        # Section 5.1: naive rounding of the full fractional solution is
        # essentially never dependency-feasible, let alone budget-feasible.
        budget = tight_budget(varied_chain_train, 0.55)
        lp = solve_lp_relaxation(varied_chain_train, budget)
        stats = naive_rounding_feasibility(varied_chain_train, budget, lp,
                                           mode="randomized", num_samples=100, seed=0)
        assert stats["num_samples"] == 100
        assert stats["num_feasible"] <= 2  # the paper observes exactly 0

    def test_naive_deterministic_single_sample(self, varied_chain_train):
        budget = tight_budget(varied_chain_train, 0.55)
        lp = solve_lp_relaxation(varied_chain_train, budget)
        stats = naive_rounding_feasibility(varied_chain_train, budget, lp, mode="deterministic")
        assert stats["num_samples"] == 1
