"""Equivalence and cache tests for the compiled-formulation fast path.

The contract under test: ``CompiledFormulation(graph).with_budget(b)`` must be
float-for-float equal to ``MILPFormulation(graph, b).build()`` -- objective,
integrality, variable bounds, constraint matrix (compared dense) and
constraint bounds -- across every experiment preset, both formulation
variants and multiple budgets; the vectorized decode/simulate paths must
reproduce the loop-built reference bit for bit; and a budget sweep must
compile the formulation exactly once per graph.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import ample_budget, tight_budget
from oracles import (
    MILPFormulation,
    highs_milp,
    simulate_schedule_memory_reference,
    solve_branch_and_bound,
)

from repro.core import (
    DFGraph,
    NodeInfo,
    ScheduleMatrices,
    checkpoint_all_schedule,
    checkpoint_last_node_schedule,
    schedule_compute_cost,
    validate_correctness_constraints,
)
from repro.core.simulator import simulate_schedule_memory
from repro.experiments.budget_sweep import budget_grid
from repro.experiments.presets import EXPERIMENT_MODELS, build_training_graph
from repro.service import FormulationCache, SolveService, set_formulation_cache
from repro.solvers import (
    CompiledFormulation,
    InfeasibleBudgetError,
    solve_ilp_rematerialization,
)

PRESETS = sorted(EXPERIMENT_MODELS)

#: Stage count used for the unpartitioned variant on the preset graphs: the
#: Eq. (8) formulation is only exercised at small T in the Appendix-A ablation,
#: and T = n on ResNet50 would dominate the suite's runtime for no extra
#: coverage of the assembly code paths.
UNPARTITIONED_STAGES = 10

_GRAPHS = {}


def preset_graph(key):
    if key not in _GRAPHS:
        _GRAPHS[key] = build_training_graph(key)
    return _GRAPHS[key]


def assert_arrays_equal(legacy, compiled):
    __tracebackhide__ = True
    assert np.array_equal(legacy.c, compiled.c)
    assert np.array_equal(legacy.integrality, compiled.integrality)
    assert np.array_equal(legacy.lb, compiled.lb)
    assert np.array_equal(legacy.ub, compiled.ub)
    assert np.array_equal(legacy.constraint_lb, compiled.constraint_lb)
    assert np.array_equal(legacy.constraint_ub, compiled.constraint_ub)
    assert legacy.A.shape == compiled.A.shape
    # Elementwise equality of the (summed, canonical) sparse matrices -- the
    # same statement as dense equality without materializing ~GB of zeros for
    # the larger presets.
    assert (legacy.A != compiled.A).nnz == 0


class TestArraysEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_frontier_matches_loop_built_across_budgets(self, preset):
        graph = preset_graph(preset)
        compiled = CompiledFormulation(graph)
        for budget in budget_grid(graph, num_budgets=3):
            legacy = MILPFormulation(graph, budget)
            assert_arrays_equal(legacy.build(), compiled.with_budget(budget))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_unpartitioned_matches_loop_built_across_budgets(self, preset):
        graph = preset_graph(preset)
        T = UNPARTITIONED_STAGES
        compiled = CompiledFormulation(graph, frontier_advancing=False, num_stages=T)
        for budget in budget_grid(graph, num_budgets=3):
            legacy = MILPFormulation(graph, budget, frontier_advancing=False,
                                     num_stages=T)
            assert_arrays_equal(legacy.build(), compiled.with_budget(budget))

    def test_small_fixture_graphs(self, chain5_train, diamond_train, varied_chain_train):
        for graph in (chain5_train, diamond_train, varied_chain_train):
            compiled = CompiledFormulation(graph)
            for fraction in (0.55, 0.8, 1.0):
                budget = tight_budget(graph, fraction)
                legacy = MILPFormulation(graph, budget)
                assert_arrays_equal(legacy.build(), compiled.with_budget(budget))

    def test_with_budget_shares_static_arrays(self, chain5_train):
        compiled = CompiledFormulation(chain5_train)
        a1 = compiled.with_budget(ample_budget(chain5_train))
        a2 = compiled.with_budget(tight_budget(chain5_train, 0.7))
        assert a1.c is a2.c and a1.A is a2.A and a1.lb is a2.lb
        assert a1.ub is not a2.ub  # only the budget-bearing bounds differ
        u = compiled.u_slice
        assert not np.array_equal(a1.ub[u], a2.ub[u])

    def test_budget_below_overhead_raises(self, tiny_vgg_train):
        compiled = CompiledFormulation(tiny_vgg_train)
        with pytest.raises(InfeasibleBudgetError):
            compiled.with_budget(tiny_vgg_train.constant_overhead - 1)

    def test_frontier_requires_full_stage_count(self, chain5_train):
        with pytest.raises(ValueError):
            CompiledFormulation(chain5_train, num_stages=3)


class TestDecodeEquivalence:
    def test_decode_matches_loop_built(self, tiny_unet_train):
        graph = tiny_unet_train
        budget = tight_budget(graph, 0.7)
        legacy = MILPFormulation(graph, budget)
        legacy.build()
        compiled = CompiledFormulation(graph)
        rng = np.random.default_rng(7)
        x = rng.random(compiled.num_variables)
        dm_l, dm_c = legacy.decode_matrices(x), compiled.decode_matrices(x)
        assert np.array_equal(dm_l.R, dm_c.R)
        assert np.array_equal(dm_l.S, dm_c.S)
        (Rl, Sl), (Rc, Sc) = legacy.decode_fractional(x), compiled.decode_fractional(x)
        assert np.array_equal(Rl, Rc) and np.array_equal(Sl, Sc)
        assert legacy.objective_value(x) == pytest.approx(compiled.objective_value(x))

    def test_unnormalized_bound_undoes_the_cost_scale(self, varied_chain_train):
        compiled = CompiledFormulation(varied_chain_train)
        assert compiled.unnormalized_bound(None) is None
        # A normalized value of 1 is one unit of the largest node cost.
        assert compiled.unnormalized_bound(1.0) == max(
            varied_chain_train.cost(i) for i in range(varied_chain_train.size))
        assert compiled.unnormalized_bound(0.0) == 0.0

    def test_objective_value_matches_dict_iteration(self, varied_chain_train):
        graph = varied_chain_train
        f = MILPFormulation(graph, ample_budget(graph))
        rng = np.random.default_rng(3)
        x = rng.random(f.num_variables)
        looped = sum(graph.cost(i) * x[idx] for (t, i), idx in f.r_index.items())
        assert f.objective_value(x) == pytest.approx(looped, rel=1e-12)

    def test_solver_results_identical_on_both_paths(self, varied_chain_train):
        # One HiGHS call on each formulation's arrays returns the same
        # schedule.  The product solve starts HiGHS from an incumbent, so it
        # may settle an equal-cost tie differently: it must match the cost.
        budget = tight_budget(varied_chain_train, 0.6)
        legacy = MILPFormulation(varied_chain_train, budget)
        res = highs_milp(legacy.build())
        compiled = CompiledFormulation(varied_chain_train)
        compiled_res = highs_milp(compiled.with_budget(budget))
        assert res.x is not None and compiled_res.x is not None
        slow = legacy.decode_matrices(np.asarray(res.x))
        fast = compiled.decode_matrices(np.asarray(compiled_res.x))
        assert np.array_equal(fast.R, slow.R)
        assert np.array_equal(fast.S, slow.S)
        product = solve_ilp_rematerialization(varied_chain_train, budget)
        assert product.feasible
        assert product.compute_cost == pytest.approx(
            schedule_compute_cost(varied_chain_train, slow))


class TestBranchAndBound:
    def test_node_counts_unchanged_on_compiled_arrays(self, chain5_train):
        budget = tight_budget(chain5_train, 0.7)
        legacy_arrays = MILPFormulation(chain5_train, budget).build()
        compiled = CompiledFormulation(chain5_train)
        res_legacy = solve_branch_and_bound(legacy_arrays, max_nodes=2000)
        res_compiled = solve_branch_and_bound(compiled.with_budget(budget), max_nodes=2000)
        assert res_legacy.nodes_explored == res_compiled.nodes_explored
        assert res_legacy.proven_optimal and res_compiled.proven_optimal
        assert res_compiled.objective == pytest.approx(res_legacy.objective)
        assert np.array_equal(res_legacy.x, res_compiled.x)


class TestFormulationCache:
    def test_sweep_compiles_exactly_once(self, tiny_vgg_train):
        fresh = FormulationCache()
        previous = set_formulation_cache(fresh)
        try:
            service = SolveService(cache=None)
            budgets = budget_grid(tiny_vgg_train, num_budgets=4)
            results = service.sweep(
                tiny_vgg_train,
                [("checkmate_approx", b) for b in budgets],
                parallel=False,
            )
        finally:
            set_formulation_cache(previous)
        assert all(r is not None for r in results)
        stats = fresh.stats()
        assert stats["compiles"] == 1
        assert stats["misses"] == 1
        # The sweep precompile plus one LP solve per budget all hit the entry.
        assert stats["hits"] >= len(budgets)

    def test_cache_keyed_by_content_not_identity(self, tiny_vgg_train):
        from repro.models import vgg16
        from repro.autodiff import make_training_graph
        from repro.cost_model import FlopCostModel

        rebuilt = FlopCostModel().apply(make_training_graph(vgg16(batch_size=2, resolution=32)))
        cache = FormulationCache()
        first = cache.get(tiny_vgg_train)
        second = cache.get(rebuilt)
        assert first is second
        assert cache.stats()["compiles"] == 1

    def test_lru_eviction(self, chain5_train, diamond_train, varied_chain_train):
        cache = FormulationCache(max_entries=2)
        cache.get(chain5_train)
        cache.get(diamond_train)
        cache.get(varied_chain_train)  # evicts chain5
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        cache.get(chain5_train)  # recompiles
        assert cache.stats()["compiles"] == 4


class TestVectorizedSimulator:
    def schedules(self, graph):
        yield checkpoint_all_schedule(graph)
        yield checkpoint_last_node_schedule(graph)
        result = solve_ilp_rematerialization(graph, tight_budget(graph, 0.65))
        if result.feasible:
            yield result.matrices

    @pytest.mark.parametrize("fixture", ["chain5_train", "diamond_train",
                                         "varied_chain_train", "tiny_unet_train"])
    def test_matches_reference_recurrence(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        for matrices in self.schedules(graph):
            fast = simulate_schedule_memory(graph, matrices)
            reference = simulate_schedule_memory_reference(graph, matrices)
            assert np.array_equal(fast, reference)

    # The oracle must agree on *any* 0/1 (R, S), not just valid schedules:
    # random DAGs with random matrices, including an edgeless graph, all-zero
    # stages, nodes with several users and stage counts other than n.
    @staticmethod
    def random_case(n, density, stages, fill, seed):
        rng = np.random.default_rng(seed)
        graph = DFGraph(
            nodes=[NodeInfo(f"v{j}", 1.0, int(rng.integers(1, 1 << 30)))
                   for j in range(n)],
            deps={j: [i for i in range(j) if rng.random() < density]
                  for j in range(n)},
            input_memory=int(rng.integers(0, 1 << 20)),
            parameter_memory=int(rng.integers(0, 1 << 20)))
        R = (rng.random((stages, n)) < fill).astype(np.uint8)
        S = (rng.random((stages, n)) < fill).astype(np.uint8)
        R[rng.integers(stages)] = 0  # one all-zero stage
        return graph, ScheduleMatrices(R, S)

    @pytest.mark.parametrize("n, density, stages, fill", [
        (7, 0.0, 7, 0.5),    # edgeless graph
        (8, 1.0, 8, 0.6),    # complete DAG: every node has several users
        (9, 0.4, 3, 0.5),    # fewer stages than nodes
        (6, 0.5, 10, 0.9),   # more stages than nodes
        (5, 0.5, 5, 0.0),    # all-zero matrices
        (5, 0.5, 5, 1.0),    # all-one matrices (a non-schedule)
    ])
    def test_matches_reference_on_named_cases(self, n, density, stages, fill):
        for seed in range(5):
            graph, matrices = self.random_case(n, density, stages, fill, seed)
            assert np.array_equal(
                simulate_schedule_memory(graph, matrices),
                simulate_schedule_memory_reference(graph, matrices))

    @given(n=st.integers(1, 12), density=st.floats(0.0, 1.0),
           stages=st.integers(1, 14), fill=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_on_random_matrices(self, n, density, stages,
                                                  fill, seed):
        graph, matrices = self.random_case(n, density, stages, fill, seed)
        assert np.array_equal(
            simulate_schedule_memory(graph, matrices),
            simulate_schedule_memory_reference(graph, matrices))


class TestVectorizedValidator:
    def test_clean_schedule_fast_path(self, tiny_resnet_train):
        matrices = checkpoint_all_schedule(tiny_resnet_train)
        assert validate_correctness_constraints(tiny_resnet_train, matrices) == []

    def test_violations_still_reported_in_detail(self, chain5_train):
        matrices = checkpoint_all_schedule(chain5_train)
        matrices.S[0, 0] = 1          # (1d)
        matrices.R[2, 2] = 0          # (8a)
        matrices.S[3, 1] = 1
        matrices.S[2, 1] = 0
        matrices.R[2, 1] = 0          # (1c) for S[3, 1]
        messages = validate_correctness_constraints(chain5_train, matrices)
        assert any("(1d)" in m for m in messages)
        assert any("(8a)" in m for m in messages)
        assert any("(1c)" in m for m in messages)
