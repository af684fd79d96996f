"""Property-based tests (hypothesis) for the core invariants of the system."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autodiff import make_training_graph
from repro.core import (
    checkpoint_all_schedule,
    compute_free_events,
    generate_execution_plan,
    linear_graph,
    no_recompute_schedule,
    random_layered_dag,
    schedule_compute_cost,
    schedule_peak_memory,
    simulate_plan,
    validate_correctness_constraints,
)
from repro.solvers import solve_min_r
from repro.baselines import (STRATEGIES, forward_candidates,
                             segment_checkpoint_schedule)

_SETTINGS = dict(deadline=None, max_examples=25,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_dags(draw):
    """Random layered DAGs with 4-8 layers, used as solver inputs."""
    layers = draw(st.integers(min_value=3, max_value=6))
    width = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_layered_dag(layers, width, seed=seed)


@st.composite
def chain_training_graphs(draw):
    """Training graphs of small chains with random positive costs and memories."""
    n = draw(st.integers(min_value=2, max_value=6))
    costs = draw(st.lists(st.floats(min_value=0.5, max_value=20), min_size=n, max_size=n))
    mems = draw(st.lists(st.integers(min_value=1, max_value=32), min_size=n, max_size=n))
    return make_training_graph(linear_graph(n, cost=costs, memory=mems))


@given(small_dags())
@settings(**_SETTINGS)
def test_checkpoint_all_is_always_valid(graph):
    matrices = checkpoint_all_schedule(graph)
    assert validate_correctness_constraints(graph, matrices) == []
    assert schedule_compute_cost(graph, matrices) == graph.total_cost()


@given(st.one_of(small_dags(), chain_training_graphs()))
@settings(**_SETTINGS)
def test_no_recompute_schedule_is_valid_and_no_higher_than_checkpoint_all(graph):
    matrices = no_recompute_schedule(graph)
    assert validate_correctness_constraints(graph, matrices) == []
    assert schedule_compute_cost(graph, matrices) == graph.total_cost()
    assert (schedule_peak_memory(graph, matrices)
            <= schedule_peak_memory(graph, checkpoint_all_schedule(graph)))


@given(small_dags(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(**_SETTINGS)
def test_min_r_produces_valid_schedules_for_random_S(graph, seed):
    """Phase two of Algorithm 2 must repair any random checkpoint policy."""
    rng = np.random.default_rng(seed)
    n = graph.size
    S = (rng.random((n, n)) < 0.3).astype(np.uint8)
    matrices = solve_min_r(graph, S)
    assert validate_correctness_constraints(graph, matrices) == []
    # min-R never computes a node before its frontier stage.
    assert np.all(np.triu(matrices.R, k=1) == 0)


@given(small_dags(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(**_SETTINGS)
def test_no_double_deallocation_theorem(graph, seed):
    """Theorem 4.1: FREE events never free the same value twice in a stage."""
    rng = np.random.default_rng(seed)
    n = graph.size
    S = (rng.random((n, n)) < 0.4).astype(np.uint8)
    matrices = solve_min_r(graph, S)
    events = compute_free_events(graph, matrices)
    for t in range(n):
        freed = [i for (tt, _k), nodes in events.items() if tt == t for i in nodes]
        assert len(freed) == len(set(freed))


@given(small_dags(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(**_SETTINGS)
def test_plans_respect_dependencies_and_schedule_peak(graph, seed):
    """Algorithm 1 lowers any feasible (R, S) into a dependency-correct plan
    whose simulated peak never exceeds the paper's U accounting."""
    rng = np.random.default_rng(seed)
    n = graph.size
    S = (rng.random((n, n)) < 0.5).astype(np.uint8)
    matrices = solve_min_r(graph, S)
    plan = generate_execution_plan(graph, matrices)
    trace = simulate_plan(graph, plan)  # raises on dependency violation
    assert trace.peak_memory <= schedule_peak_memory(graph, matrices)
    assert np.isclose(trace.total_cost, schedule_compute_cost(graph, matrices))


@given(chain_training_graphs(), st.data())
@settings(**_SETTINGS)
def test_segment_schedules_valid_for_any_checkpoint_subset(graph, data):
    """Every checkpoint-set baseline yields a correct schedule, whatever the set."""
    n_forward = graph.meta["n_forward"]
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=n_forward - 1)))
    matrices = segment_checkpoint_schedule(graph, subset)
    assert validate_correctness_constraints(graph, matrices) == []
    # Recomputation is bounded by roughly one extra forward pass.
    assert matrices.R.sum() <= graph.size + n_forward + 2


@st.composite
def layered_training_graphs(draw):
    """Training graphs of random layered DAGs (2-8 layers, widths 1-4)."""
    layers = draw(st.integers(min_value=2, max_value=8))
    width = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return make_training_graph(random_layered_dag(layers, width, seed=seed))


@given(st.one_of(layered_training_graphs(), chain_training_graphs()))
@settings(**_SETTINGS)
def test_checkpoint_all_strategy_is_the_no_recompute_schedule(graph):
    """Checkpointing every forward value and dropping each value after its
    last consumer, then solving min-R, is the no-recompute schedule -- which
    the ``checkpoint_all`` strategy returns on training graphs."""
    n = graph.size
    lifted = segment_checkpoint_schedule(graph, forward_candidates(graph))
    last = np.array([max(graph.successors(i), default=i) for i in range(n)])
    dropped = lifted.S * (np.arange(n)[:, None] <= last)
    expected = no_recompute_schedule(graph)
    for matrices in (solve_min_r(graph, dropped),
                     STRATEGIES["checkpoint_all"].solve(graph).matrices):
        assert (matrices.R == expected.R).all()
        assert (matrices.S == expected.S).all()


@given(chain_training_graphs())
@settings(**_SETTINGS)
def test_training_graph_structure_properties(graph):
    """Gradient graphs are topologically ordered, flagged, and memory-matched."""
    n_forward = graph.meta["n_forward"]
    assert graph.size == 2 * n_forward
    for i, gid in graph.meta["grad_index"].items():
        assert graph.memory(gid) == graph.memory(i)
        assert graph.nodes[gid].is_backward
    assert all(i < j for i, j in graph.edges())
