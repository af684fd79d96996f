"""The below-peak repair incumbent and how the exact solver starts HiGHS."""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import below_liveness_budget, no_recompute_peak
from repro.autodiff import make_training_graph
from repro.core import (
    linear_graph,
    no_recompute_schedule,
    random_layered_dag,
    schedule_compute_cost,
    schedule_peak_memory,
    validate_correctness_constraints,
)
from repro.core.simulator import simulate_schedule_memory
from repro.experiments import build_training_graph
from repro.service.solve import _cacheable
from repro.solvers import (
    FormulationCache,
    LPRelaxationCache,
    formulation_and_arrays,
    solve_ilp_rematerialization,
    solve_lp_relaxation,
    solve_min_r,
)
from repro.solvers.repair import evaluate_moves, repair_schedule
from repro.solvers.warm import min_feasible_budget_floor

_SETTINGS = dict(deadline=None, max_examples=40,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def training_graphs(draw):
    """Training graphs of random layered DAGs or of chains with random costs."""
    if draw(st.booleans()):
        layers = draw(st.integers(min_value=2, max_value=7))
        width = draw(st.integers(min_value=1, max_value=3))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        return make_training_graph(random_layered_dag(layers, width, seed=seed))
    n = draw(st.integers(min_value=2, max_value=7))
    costs = draw(st.lists(st.floats(min_value=0.5, max_value=20), min_size=n, max_size=n))
    mems = draw(st.lists(st.integers(min_value=1, max_value=32), min_size=n, max_size=n))
    return make_training_graph(linear_graph(n, cost=costs, memory=mems))


@given(training_graphs(), st.floats(min_value=0.0, max_value=1.0))
@settings(**_SETTINGS)
def test_repair_fits_is_valid_and_respects_the_lp_bound(graph, fraction):
    floor, peak = min_feasible_budget_floor(graph), no_recompute_peak(graph)
    if peak - 1 < floor:
        return
    budget = int(floor + fraction * (peak - 1 - floor))
    repaired = repair_schedule(graph, budget)
    if repaired is None:
        # The greedy gives up only when nothing lowers the peak stage.
        return
    assert validate_correctness_constraints(graph, repaired) == []
    assert schedule_peak_memory(graph, repaired) <= budget
    # The repair's R is the minimal completion of its S.
    assert (solve_min_r(graph, repaired.S).R == repaired.R).all()
    lp = solve_lp_relaxation(graph, budget)
    assert lp.feasible
    assert schedule_compute_cost(graph, repaired) >= lp.objective * (1 - 1e-9)


def test_repair_above_the_peak_is_the_no_recompute_schedule(varied_chain_train):
    repaired = repair_schedule(varied_chain_train, no_recompute_peak(varied_chain_train))
    expected = no_recompute_schedule(varied_chain_train)
    assert (repaired.R == expected.R).all() and (repaired.S == expected.S).all()


@given(training_graphs(), st.data())
@settings(**_SETTINGS)
def test_row_local_moves_match_a_full_completion(graph, data):
    """Evaluating an edit on stages ``lo - 1 .. hi`` equals re-solving the
    whole schedule with ``solve_min_r`` and ``simulate_schedule_memory``."""
    n = graph.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    S = no_recompute_schedule(graph).S.astype(bool)
    S &= rng.random(S.shape) < 0.8
    moves = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        node = int(rng.integers(0, n - 1))
        lo = int(rng.integers(node + 1, n))
        moves.append((node, lo, int(rng.integers(lo, n))))
    value = data.draw(st.booleans())
    stages, owner, (R, peak, cost) = evaluate_moves(graph, S, moves, value=value)
    for k, (node, lo, hi) in enumerate(moves):
        edited = S.copy()
        edited[lo:hi + 1, node] = value
        full = solve_min_r(graph, edited)
        U = simulate_schedule_memory(graph, full)
        rows = owner == k
        assert list(stages[rows]) == list(range(max(lo - 1, 0), hi + 1))
        assert (R[rows] == full.R[stages[rows]].astype(bool)).all()
        assert (peak[rows] == U[stages[rows]].max(axis=1)).all()
        assert cost[rows] == pytest.approx(full.R[stages[rows]] @ graph.cost_vector)


class TestStartedSolve:
    """Below the peak the exact solver starts HiGHS from its incumbent."""

    #: A linear_cnn cell whose LP certificate misses and whose rounding
    #: fits nothing: HiGHS starts from the repair.
    CELL = ("linear_cnn", 64, 0.1)

    @pytest.fixture
    def graph_and_budget(self):
        preset, batch, fraction = self.CELL
        graph = build_training_graph(preset, batch_size=batch)
        return graph, below_liveness_budget(graph, fraction)

    @pytest.fixture
    def milp_calls(self, monkeypatch):
        import repro.solvers.ilp as ilp_module

        calls = []
        real_milp = ilp_module.milp

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real_milp(*args, **kwargs)

        monkeypatch.setattr(ilp_module, "milp", spy)
        return calls

    def test_repair_is_the_start_and_highs_keeps_its_cost(self, graph_and_budget,
                                                          milp_calls):
        graph, budget = graph_and_budget
        repaired = repair_schedule(graph, budget)
        result = solve_ilp_rematerialization(graph, budget)
        assert len(milp_calls) == 1
        index, values = milp_calls[0]["start"]
        formulation, _ = formulation_and_arrays(graph, budget)
        expected = formulation.start_entries(repaired)
        assert (index == expected[0]).all() and (values == expected[1]).all()
        assert milp_calls[0]["should_cancel"] is None
        assert result.solver_status == "optimal"
        assert result.compute_cost <= schedule_compute_cost(graph, repaired) * (1 + 1e-9)
        assert result.peak_memory <= budget

    def test_limit_on_a_no_cheaper_solution_reports_the_incumbent(
            self, monkeypatch, graph_and_budget):
        """HiGHS stopping at a limit on its start is the incumbent, named
        ``<status>-<source>-incumbent``."""
        import repro.solvers.ilp as ilp_module

        def stopped_on_start(*args, start, **kwargs):
            x = np.zeros(len(kwargs["c"]))
            x[start[0]] = start[1]
            return types.SimpleNamespace(status=1, x=x, mip_dual_bound=None,
                                         mip_gap=None, mip_node_count=0)

        monkeypatch.setattr(ilp_module, "milp", stopped_on_start)
        graph, budget = graph_and_budget
        result = solve_ilp_rematerialization(graph, budget)
        assert result.feasible
        assert result.solver_status == "time_limit-repair-incumbent"
        assert result.compute_cost == schedule_compute_cost(
            graph, repair_schedule(graph, budget))

    def test_cancelled_solve_returns_its_incumbent_uncached(self, graph_and_budget):
        graph, budget = graph_and_budget
        result = solve_ilp_rematerialization(graph, budget, should_cancel=lambda: True)
        assert result.feasible and result.peak_memory <= budget
        assert result.solver_status.startswith("cancelled")
        assert not _cacheable(result)

    def test_same_cell_same_schedule_whatever_was_solved_before(
            self, monkeypatch, graph_and_budget):
        """The start comes from the cell alone, so the schedule does not
        depend on what the process solved earlier."""
        import repro.solvers.compiled as compiled
        import repro.solvers.rounding_portfolio as portfolio

        def fresh_caches():
            monkeypatch.setattr(compiled, "_formulation_cache", FormulationCache())
            monkeypatch.setattr(portfolio, "_lp_cache", LPRelaxationCache())

        graph, budget = graph_and_budget
        fresh_caches()
        first = solve_ilp_rematerialization(graph, budget)
        for batch, fraction in ((64, 0.05), (64, 0.2), (32, 0.1), (65, 0.1)):
            other = build_training_graph("linear_cnn", batch_size=batch)
            solve_ilp_rematerialization(other, below_liveness_budget(other, fraction))
        warm = solve_ilp_rematerialization(graph, budget)
        fresh_caches()
        rebuilt = build_training_graph(*self.CELL[:1], batch_size=self.CELL[1])
        cold = solve_ilp_rematerialization(rebuilt, budget)
        for again in (warm, cold):
            assert again.matrices.R.tobytes() == first.matrices.R.tobytes()
            assert again.matrices.S.tobytes() == first.matrices.S.tobytes()

    def test_hooked_and_unhooked_runs_agree(self, graph_and_budget):
        """HiGHS runs on the caller's thread without a cancel hook (process
        workers, library calls) and on a ``repro-highs`` thread with one (the
        thread backend): a hook that never fires changes nothing."""
        graph, budget = graph_and_budget
        polls = []
        hooked = solve_ilp_rematerialization(
            graph, budget, should_cancel=lambda: polls.append(1) or False)
        plain = solve_ilp_rematerialization(graph, budget)
        assert polls
        assert hooked.solver_status == plain.solver_status == "optimal"
        assert hooked.compute_cost == plain.compute_cost
        assert hooked.matrices.R.tobytes() == plain.matrices.R.tobytes()
        assert hooked.matrices.S.tobytes() == plain.matrices.S.tobytes()
