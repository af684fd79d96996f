"""Tests for the unified solve-service layer (registry, cache, sweep)."""

import json
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (ample_budget, no_recompute_peak, reference_canonical_meta,
                     tight_budget)
from oracles import registry_with_bnb

from repro.autodiff import make_training_graph
from repro.baselines import STRATEGIES
from repro.core import DFGraph, NodeInfo, linear_graph
from repro.experiments import budget_grid, budget_sweep, build_training_graph
from repro.service import (
    PlanCache,
    SolveService,
    SolverOptions,
    SolverSpec,
    SweepCell,
    default_registry,
    graph_content_hash,
)
from repro.service import hashing
from repro.solvers.rounding_portfolio import (PORTFOLIO_SCHEMES,
                                              PORTFOLIO_STRATEGY_KEYS,
                                              solve_rounding_portfolio)
from repro.utils.serialization import META_TAGS, graph_from_wire, graph_to_wire


def fresh_service(**kwargs) -> SolveService:
    return SolveService(**kwargs)


def make_chain_train(n=6):
    fwd = linear_graph(n, cost=[1, 50, 2, 30, 4, 10][:n], memory=[8, 2, 16, 4, 32, 1][:n])
    return make_training_graph(fwd)


class TestGraphHash:
    def test_stable_across_reconstruction(self):
        a = make_chain_train()
        b = make_chain_train()
        assert a is not b
        assert graph_content_hash(a) == graph_content_hash(b)

    def test_stable_for_preset_rebuild(self):
        a = build_training_graph("vgg16", batch_size=1, resolution=32)
        b = build_training_graph("vgg16", batch_size=1, resolution=32)
        assert graph_content_hash(a) == graph_content_hash(b)

    def test_sensitive_to_costs_memories_and_edges(self):
        base = make_chain_train()
        h = graph_content_hash(base)
        costs = list(base.cost_vector)
        costs[0] += 1.0
        assert graph_content_hash(base.with_costs(costs)) != h
        mems = [int(m) for m in base.memory_vector]
        mems[-1] += 1
        assert graph_content_hash(base.with_memories(mems)) != h
        # Same nodes, different topology.
        nodes = [NodeInfo(f"n{i}", 1.0, 1) for i in range(3)]
        g1 = DFGraph(nodes=nodes, deps={0: [], 1: [0], 2: [1]})
        g2 = DFGraph(nodes=nodes, deps={0: [], 1: [0], 2: [0, 1]})
        assert graph_content_hash(g1) != graph_content_hash(g2)

    def test_sensitive_to_overheads_and_meta(self):
        nodes = [NodeInfo("a", 1.0, 1), NodeInfo("b", 1.0, 1)]
        g1 = DFGraph(nodes=nodes, deps={0: [], 1: [0]}, parameter_memory=0)
        g2 = DFGraph(nodes=nodes, deps={0: [], 1: [0]}, parameter_memory=64)
        g3 = DFGraph(nodes=nodes, deps={0: [], 1: [0]}, meta={"n_forward": 2})
        assert len({graph_content_hash(g) for g in (g1, g2, g3)}) == 3

    def test_memoized_on_instance(self):
        g = make_chain_train()
        assert graph_content_hash(g) is graph_content_hash(g)

    def test_numpy_meta_values_hash_safely(self):
        # meta is Dict[str, object]: ndarray values must not crash the memo
        # equality check, must hash by full contents (repr truncates), and
        # in-place array mutation must invalidate the memo.
        def make(arr):
            nodes = [NodeInfo("a", 1.0, 1), NodeInfo("b", 1.0, 1)]
            return DFGraph(nodes=nodes, deps={0: [], 1: [0]},
                           meta={"mask": arr})

        big = np.arange(2000)  # large enough for repr's "..." truncation
        g = make(big.copy())
        h1 = graph_content_hash(g)
        assert graph_content_hash(g) == h1  # second lookup: no crash
        changed = big.copy()
        changed[-1] += 1  # beyond the repr ellipsis
        assert graph_content_hash(make(changed)) != h1
        g.meta["mask"][0] += 1
        assert graph_content_hash(g) != h1

    def test_meta_mutation_invalidates_memo(self):
        g = make_chain_train()
        before = graph_content_hash(g)
        g.meta["custom_tag"] = "v2"
        assert graph_content_hash(g) != before
        # In-place mutation of a nested container must also invalidate the
        # memo (the snapshot is a deep copy, not a shared reference).
        nested_before = graph_content_hash(g)
        first_key = next(iter(g.meta["grad_index"]))
        g.meta["grad_index"][first_key] += 1
        assert graph_content_hash(g) != nested_before


#: ``graph_content_hash`` of preset training graphs, as computed before the
#: memo and canonicalization rewrite: any change to the canonical form (and
#: so to every plan-cache key on disk) fails here.
PINNED_DIGESTS = {
    ("linear_cnn", 1): "71516e151261c9b9c4a4afa77c75c1be666890f3467760b3fd9295b95b97e0e5",
    ("linear_cnn", 4): "81b4d8b61c4a8f9ca3e097a803c9d4820922d07752ea1e4d662e5d60c1b576f6",
    ("resnet50", 1): "faf057e81cb6c23e7b9b22357847ab919d059588eb612424be7ad018c873886c",
    ("resnet50", 4): "c2a92a9646d24be5be5665cdb8f41a9d15792eab2186ccdfc9da24bf45998e91",
    ("unet", 1): "dde09d07528f7d95575958681dba656ef52305d24dcb5887b329dd6e855c119d",
    ("unet", 4): "5cbdeaa9e4fd5b34360fd07e60870038cb45ebc277c5fcb325429bcb117e4ae5",
    ("vgg16", 1): "29aa9117ad85fe145328ed9af1868ad1c1c2733f876257c6033e79f01d27f977",
    ("vgg16", 4): "b81f3e043403b59dad4dea01ee79d600adb55642096c12492f1b0ac1ae5dea21",
    ("segnet", 1): "8d6552a01d1cd1da2a8b56dbae5e49aa2b368a2fc0c3b1120fe6d79eaea3d577",
    ("segnet", 4): "ac4a73958e85d54057ceafaeea235f8a9890b6474879491bf1acc399e9ae5664",
}


def _canonical_json(value) -> str:
    """The bytes the content hash digests for a canonical ``meta``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


# Int keys and the strings they print as, so ``str(key)`` collisions occur.
_meta_keys = st.one_of(st.integers(-2, 2), st.sampled_from(["-1", "0", "1"]),
                       st.text(max_size=3))
_meta_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan")]),
    st.floats(allow_nan=True).map(np.float64),
    st.text(max_size=4),
    st.lists(st.integers(-99, 99), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.floats(allow_nan=True), min_size=2, max_size=6).map(
        lambda xs: np.array(xs[:len(xs) // 2 * 2]).reshape(-1, 2)),
)
_meta_values = st.recursive(
    _meta_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_meta_keys, children, max_size=4),
    ),
    max_leaves=24,
)


# Meta values whose canonical forms are meant to be injective: reserved tags
# and the list spellings of arrays are drawn on purpose.  Floats (hashed as
# their ``repr`` string) and string keys that print like int keys are left
# out: the canonical form equates those with a string by design.
_TAGS = tuple(META_TAGS.values())
_int_arrays = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda xs: np.array(xs, dtype=np.int64))
_tagged_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(_TAGS),
    st.text(alphabet="ab_", max_size=3),
    _int_arrays,
    _int_arrays.map(lambda a: [META_TAGS["ndarray"], list(a.shape),
                               a.dtype.str, a.tolist()]),
    _int_arrays.map(lambda a: [META_TAGS["ndarray"], a.dtype.str,
                               list(a.shape), a.tolist()]),
)
_tagged_values = st.recursive(
    _tagged_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(st.sampled_from(_TAGS), st.lists(children, max_size=3)).map(
            lambda pair: [pair[0], *pair[1]]),
        st.dictionaries(st.one_of(st.text(alphabet="ab", max_size=2),
                                  st.integers(0, 2)), children, max_size=3),
    ),
    max_leaves=12,
)


def _typed(value):
    """A type-aware identity for a meta value (``True != 1``, array != list)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tolist())
    if isinstance(value, dict):
        return ("dict", tuple(sorted(((type(k).__name__, k, _typed(v))
                                      for k, v in value.items()), key=repr)))
    if isinstance(value, list):
        return ("list", tuple(_typed(v) for v in value))
    return (type(value).__name__, value)


def _spelled(value):
    """``value`` written out in the tagged lists its canonical form uses:
    arrays as their ``__ndarray__`` lists, tag-led lists with the escape tag
    in front.  A canonical form that does not escape collides with these."""
    if isinstance(value, np.ndarray):
        return [META_TAGS["ndarray"], list(value.shape), value.dtype.str,
                value.tolist()]
    if isinstance(value, dict):
        return {k: _spelled(v) for k, v in value.items()}
    if isinstance(value, list):
        items = [_spelled(v) for v in value]
        return [META_TAGS["list"], *items] if items and items[0] in _TAGS else items
    return value


def _meta_graph(meta) -> DFGraph:
    return DFGraph(nodes=[NodeInfo("a", 1.0, 1), NodeInfo("b", 1.0, 1)],
                   deps={0: [], 1: [0]}, meta=meta)


class TestGraphHashStability:
    @pytest.mark.parametrize("key,batch", sorted(PINNED_DIGESTS))
    def test_preset_digest_pinned(self, key, batch):
        graph = build_training_graph(key, batch_size=batch)
        assert graph_content_hash(graph) == PINNED_DIGESTS[key, batch]
        # The memo hit (a pickle byte compare) returns the same digest.
        assert graph_content_hash(graph) == PINNED_DIGESTS[key, batch]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(st.text(max_size=4), _meta_values, max_size=5))
    def test_canonical_meta_matches_reference_walk(self, meta):
        assert (_canonical_json(hashing._canonical_meta(meta))
                == _canonical_json(reference_canonical_meta(meta)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tagged_values, st.data())
    def test_distinct_meta_values_get_distinct_digests(self, a, data):
        b = data.draw(st.one_of(_tagged_values, st.just(_spelled(a))))
        same = graph_content_hash(_meta_graph({"x": a})) == graph_content_hash(
            _meta_graph({"x": b}))
        assert same == (_typed(a) == _typed(b))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tagged_values)
    def test_wire_round_trip_keeps_meta_and_digest(self, value):
        graph = _meta_graph({"x": value})
        restored = graph_from_wire(json.loads(json.dumps(graph_to_wire(graph))))
        assert _typed(restored.meta["x"]) == _typed(value)
        assert graph_content_hash(restored) == graph_content_hash(graph)

    def test_list_spelling_an_array_is_not_the_array(self):
        array = np.array([1, 2])
        spelled = [META_TAGS["ndarray"], [2], array.dtype.str, [1, 2]]
        assert (graph_content_hash(_meta_graph({"x": array}))
                != graph_content_hash(_meta_graph({"x": spelled})))

    def test_numpy_bool_hashes_as_bool(self):
        def make(flag):
            nodes = [NodeInfo("a", 1.0, 1), NodeInfo("b", 1.0, 1)]
            return DFGraph(nodes=nodes, deps={0: [], 1: [0]},
                           meta={"flag": flag, "flags": [flag, not flag]})

        for flag in (True, False):
            assert (graph_content_hash(make(np.bool_(flag)))
                    == graph_content_hash(make(flag)))
        assert graph_content_hash(make(True)) != graph_content_hash(make(False))

    def test_unpicklable_meta_hashes_without_memo(self, monkeypatch):
        walks = []
        walk = hashing._canonical_meta
        monkeypatch.setattr(hashing, "_canonical_meta",
                            lambda value: walks.append(1) or walk(value))
        g = make_chain_train()
        g.meta["lock"] = threading.Lock()
        g.meta["callback"] = lambda: None
        digest = graph_content_hash(g)
        first_walk = len(walks)
        assert first_walk > 0
        assert graph_content_hash(g) == digest
        assert graph_content_hash(g) == digest
        assert len(walks) == 3 * first_walk  # every call is a full walk
        assert hashing._HASH_ATTR not in g.__dict__
        del g.meta["lock"], g.meta["callback"]
        assert graph_content_hash(g) == graph_content_hash(make_chain_train())

    def test_memo_travels_with_pickle_and_mutation_still_invalidates(self):
        g = make_chain_train()
        digest = graph_content_hash(g)
        clone = pickle.loads(pickle.dumps(g))
        assert clone.__dict__[hashing._HASH_ATTR][0] == digest
        assert graph_content_hash(clone) == digest
        first_key = next(iter(clone.meta["grad_index"]))
        clone.meta["grad_index"][first_key] += 1
        mutated = graph_content_hash(clone)
        assert mutated != digest
        fresh = make_chain_train()
        fresh.meta["grad_index"][first_key] += 1
        assert mutated == graph_content_hash(fresh)


class TestRegistry:
    def test_absorbs_all_table1_strategies(self):
        registry = default_registry()
        for key in STRATEGIES:
            assert key in registry
        assert len(registry.table1_entries()) == len(STRATEGIES) == 10

    def test_extra_solvers_registered_uniformly(self):
        registry = default_registry()
        assert "min_r" in registry
        assert not registry.get("min_r").in_table1
        # The reference branch-and-bound is a test oracle, not a strategy.
        assert "checkmate_bnb" not in registry

    @pytest.mark.parametrize("index", range(len(PORTFOLIO_SCHEMES)))
    def test_each_portfolio_scheme_has_exactly_one_key(self, index):
        """The race's default entrants and the rounding comparison name each
        scheme by ``PORTFOLIO_STRATEGY_KEYS``: that key must be the only
        registered one running the scheme, and a direct call must name its
        result after it."""
        scheme, key = PORTFOLIO_SCHEMES[index], PORTFOLIO_STRATEGY_KEYS[index]
        registry = default_registry()
        assert len(registry) == 15
        runs_scheme = [spec.key for spec in registry
                       if getattr(spec.solve, "keywords", {}).get("scheme") == scheme]
        assert runs_scheme == [key]
        graph = make_chain_train()
        result = solve_rounding_portfolio(graph, tight_budget(graph),
                                          scheme=scheme)
        assert result.strategy == ("checkmate-approx-lp" if key == "checkmate_approx"
                                   else key)

    def test_unknown_key_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            default_registry().get("definitely_not_a_solver")

    def test_no_silent_overwrite(self):
        registry = default_registry()
        spec = registry.get("checkmate_ilp")
        with pytest.raises(KeyError):
            registry.register(spec)
        registry.register(spec, overwrite=True)  # explicit is allowed

    def test_option_map_routes_only_declared_options(self):
        options = SolverOptions(time_limit_s=30, allowance=0.2, seed=7)
        registry = default_registry()
        ilp_kwargs = options.kwargs_for(registry.get("checkmate_ilp").option_map)
        assert ilp_kwargs == {"time_limit_s": 30}
        heuristic_kwargs = options.kwargs_for(registry.get("chen_sqrt_n").option_map)
        assert heuristic_kwargs == {}
        # The MILP time limit must NOT silently shrink the approximation's LP
        # limit; only the dedicated lp_time_limit_s field reaches it.
        approx_kwargs = options.kwargs_for(registry.get("checkmate_approx").option_map)
        assert approx_kwargs == {"allowance": 0.2}
        lp_options = SolverOptions(lp_time_limit_s=45)
        assert lp_options.kwargs_for(registry.get("checkmate_approx").option_map) \
            == {"lp_time_limit_s": 45}

    def test_cache_token_ignores_irrelevant_options(self):
        registry = default_registry()
        heuristic_map = registry.get("chen_sqrt_n").option_map
        a = SolverOptions(time_limit_s=10).cache_token(heuristic_map)
        b = SolverOptions(time_limit_s=99).cache_token(heuristic_map)
        assert a == b  # the heuristic never sees the time limit
        ilp_map = registry.get("checkmate_ilp").option_map
        assert (SolverOptions(time_limit_s=10).cache_token(ilp_map)
                != SolverOptions(time_limit_s=99).cache_token(ilp_map))
        # fixed_half tries one threshold and draws nothing at random: neither
        # the seed nor the sample count is its knob.
        approx_map = registry.get("checkmate_approx").option_map
        assert (SolverOptions(seed=1).cache_token(approx_map)
                == SolverOptions(seed=2, num_samples=8).cache_token(approx_map))


class TestSolveAndCache:
    def test_solve_matches_direct_call(self):
        graph = make_chain_train()
        budget = ample_budget(graph)
        service = fresh_service()
        via_service = service.solve(graph, "linearized_greedy", budget)
        direct = STRATEGIES["linearized_greedy"].solve(graph, budget)
        assert via_service.feasible and direct.feasible
        assert via_service.compute_cost == direct.compute_cost
        assert np.array_equal(via_service.matrices.R, direct.matrices.R)
        assert np.array_equal(via_service.matrices.S, direct.matrices.S)

    def test_cache_hit_and_miss_counters(self):
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6)
        service = fresh_service()
        service.solve(graph, "linearized_greedy", budget)
        assert service.statistics()["solver_calls"] == 1
        assert service.statistics()["cache_misses"] == 1
        service.solve(graph, "linearized_greedy", budget)
        assert service.statistics()["solver_calls"] == 1  # answered from cache
        assert service.statistics()["cache_hits"] == 1
        # Different budget -> different cell -> miss.
        service.solve(graph, "linearized_greedy", budget + 1)
        assert service.statistics()["solver_calls"] == 2

    def test_certificate_kinds_counted_on_fresh_solves(self):
        graph = make_chain_train()
        service = fresh_service()
        # At the no-recompute peak the liveness certificate answers; at 0.6
        # of the footprint a 1% gap lets the LP certificate answer.
        certified = service.solve(graph, "checkmate_ilp", no_recompute_peak(graph))
        assert certified.extra["certificate"] == "liveness"
        loose = service.solve(graph, "checkmate_ilp", tight_budget(graph, 0.6),
                              SolverOptions(mip_gap=0.01))
        assert loose.extra["certificate"] == "lp-gap"
        assert service.statistics()["certificates"] == {"liveness": 1, "lp-gap": 1}
        # A cache hit replays the result without re-counting its certificate.
        service.solve(graph, "checkmate_ilp", no_recompute_peak(graph))
        assert service.statistics()["cache_hits"] == 1
        assert service.statistics()["certificates"] == {"liveness": 1, "lp-gap": 1}

    def test_counters_lose_no_updates_across_threads(self):
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6)
        service = fresh_service()
        service.solve(graph, "linearized_greedy", budget)

        def hammer():
            for _ in range(100):
                service.solve(graph, "linearized_greedy", budget)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        stats = service.statistics()
        assert stats["cache_hits"] == 800
        assert stats["solver_calls"] == 1

    def test_cache_shared_across_reconstructed_graphs(self):
        service = fresh_service()
        budget = tight_budget(make_chain_train(), 0.6)
        service.solve(make_chain_train(), "checkmate_approx", budget)
        result = service.solve(make_chain_train(), "checkmate_approx", budget)
        assert service.statistics()["solver_calls"] == 1
        assert result.feasible

    def test_checkmate_approx_shares_the_portfolio_lp(self):
        """``checkmate_approx`` is the portfolio's ``fixed_half`` scheme, so
        solving it and another scheme on one cell pays for one LP
        relaxation, not two."""
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6) + 0.375  # a budget no other test solves
        service = fresh_service()

        def lp_solves():
            return service.statistics()["lp_relaxation_cache"]["solves"]

        before = lp_solves()
        approx = service.solve(graph, "checkmate_approx", budget)
        assert lp_solves() - before == 1  # through the shared cache
        service.solve(graph, "approx_threshold_sweep", budget)
        assert lp_solves() - before == 1  # reused, not solved again
        assert approx.strategy == "checkmate-approx-lp"

    def test_options_participate_in_cache_key(self):
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6)
        service = fresh_service()
        service.solve(graph, "checkmate_approx", budget, SolverOptions(allowance=0.1))
        service.solve(graph, "checkmate_approx", budget, SolverOptions(allowance=0.3))
        assert service.statistics()["solver_calls"] == 2

    def test_disabled_cache_service(self):
        graph = make_chain_train()
        service = fresh_service(cache=None)
        budget = tight_budget(graph, 0.6)
        service.solve(graph, "linearized_greedy", budget)
        service.solve(graph, "linearized_greedy", budget)
        assert service.statistics()["solver_calls"] == 2
        # No cache was consulted, so neither hit nor miss counters move.
        assert service.statistics()["cache_hits"] == 0
        assert service.statistics()["cache_misses"] == 0

    def test_lru_eviction(self):
        graph = make_chain_train()
        service = fresh_service(cache=PlanCache(max_entries=1))
        b1, b2 = tight_budget(graph, 0.6), tight_budget(graph, 0.7)
        service.solve(graph, "linearized_greedy", b1)
        service.solve(graph, "linearized_greedy", b2)  # evicts b1
        service.solve(graph, "linearized_greedy", b1)
        assert service.statistics()["solver_calls"] == 3

    def test_infeasible_results_cached_too(self):
        graph = make_chain_train()
        service = fresh_service()
        result = service.solve(graph, "checkmate_ilp", 1,
                               SolverOptions(time_limit_s=5))
        assert not result.feasible
        again = service.solve(graph, "checkmate_ilp", 1, SolverOptions(time_limit_s=5))
        assert not again.feasible
        assert service.statistics()["solver_calls"] == 1

    def test_timeout_without_incumbent_not_cached(self):
        # "No incumbent at the wall-clock limit" is load-dependent; replaying
        # it from the cache would turn a transient timeout into permanent
        # infeasibility.  Proven infeasibility (covered above) stays cached.
        from repro.solvers.common import build_scheduled_result

        graph = make_chain_train()

        def flaky_solver(g, budget=None, **kw):
            return build_scheduled_result("flaky", g, None, budget=int(budget),
                                          feasible=False, solver_status="time_limit")

        registry = default_registry()
        registry.register(SolverSpec(key="flaky", description="stub",
                                     solve=flaky_solver))
        service = fresh_service(registry=registry)
        service.solve(graph, "flaky", 100)
        service.solve(graph, "flaky", 100)
        assert service.statistics()["solver_calls"] == 2  # never answered from cache

    def test_unserializable_result_does_not_fail_disk_store(self, tmp_path):
        # A custom solver with exotic (non-JSON) result fields must not abort
        # the solve at disk-store time, nor leave partial tmp files behind.
        from repro.core import ScheduledResult

        graph = make_chain_train()

        def exotic_solver(g, budget=None, **kw):
            # budget={1,2} breaks json.dump; solve_time_s=None breaks payload
            # construction itself (float(None)) -- both must be survivable.
            return ScheduledResult(strategy="exotic", graph=g, matrices=None,
                                   compute_cost=1.0, peak_memory=0,
                                   feasible=False, budget={1, 2},
                                   solve_time_s=None,
                                   solver_status="infeasible")

        registry = default_registry()
        registry.register(SolverSpec(key="exotic", description="stub",
                                     solve=exotic_solver))
        service = fresh_service(registry=registry,
                                cache=PlanCache(cache_dir=str(tmp_path)))
        result = service.solve(graph, "exotic", 100)
        assert not result.feasible
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_budget_zero_is_a_real_budget(self):
        # Regression: `int(budget) if budget else None` used to turn budget=0
        # into "unbounded" and report feasibility.
        graph = make_chain_train()
        service = fresh_service()
        result = service.solve(graph, "checkpoint_all", 0)
        assert result.budget == 0
        assert not result.feasible

    def test_not_applicable_strategy_yields_infeasible(self, diamond_train):
        service = fresh_service()
        result = service.solve(diamond_train, "griewank_logn",
                               ample_budget(diamond_train))
        assert not result.feasible
        assert "not-applicable" in result.solver_status
        with pytest.raises(ValueError):
            service.solve(diamond_train, "griewank_logn",
                          ample_budget(diamond_train), strict=True)

    def test_misconfiguration_propagates_even_non_strict(self):
        # Only StrategyNotApplicableError becomes a 'not-applicable' result;
        # a genuinely bad option must surface, not masquerade as infeasible.
        graph = make_chain_train()
        service = fresh_service()
        with pytest.raises(ValueError, match="allowance"):
            service.solve(graph, "checkmate_approx", ample_budget(graph),
                          SolverOptions(allowance=2.0))

    def test_not_applicable_placeholder_never_cached(self, diamond_train):
        # A strict=True call after a non-strict one on the same cell must still
        # raise: placeholders for raised strategies are not cacheable results.
        service = fresh_service()
        budget = ample_budget(diamond_train)
        service.solve(diamond_train, "griewank_logn", budget)
        assert service.statistics()["cache_hits"] == 0
        with pytest.raises(ValueError):
            service.solve(diamond_train, "griewank_logn", budget, strict=True)
        # And the non-strict path re-derives it rather than hitting the cache.
        again = service.solve(diamond_train, "griewank_logn", budget)
        assert "not-applicable" in again.solver_status
        assert service.statistics()["cache_hits"] == 0

    def test_extra_solvers_through_service(self):
        graph = make_chain_train(4)
        service = fresh_service(registry=registry_with_bnb())
        budget = ample_budget(graph)
        bnb = service.solve(graph, "checkmate_bnb", budget)
        assert bnb.feasible
        minr = service.solve(graph, "min_r", budget,
                             SolverOptions(checkpoints=(1, 3)))
        assert minr.feasible
        assert minr.extra["checkpoints"] == [1, 3]


class TestDiskCache:
    def test_roundtrip_across_service_instances(self, tmp_path):
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6)
        first = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        original = first.solve(graph, "checkmate_approx", budget)
        assert first.statistics()["solver_calls"] == 1

        # A new process would start with an empty in-memory tier but the same
        # directory: the plan must come back from disk, not from a solver.
        second = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        restored = second.solve(graph, "checkmate_approx", budget)
        assert second.statistics()["solver_calls"] == 0
        assert restored.feasible == original.feasible
        assert restored.compute_cost == pytest.approx(original.compute_cost)
        assert np.array_equal(restored.matrices.R, original.matrices.R)
        assert np.array_equal(restored.matrices.S, original.matrices.S)
        # Solver metadata survives the disk roundtrip.
        assert restored.extra["lp_objective"] == pytest.approx(
            original.extra["lp_objective"])
        assert (restored.plan is None) == (original.plan is None)

    # Not JSON, then valid JSON that is not an object: every one is a miss.
    @pytest.mark.parametrize("content", ["{not json", "null", "[]", '"text"'])
    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path, content):
        graph = make_chain_train()
        budget = ample_budget(graph)
        service = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        service.solve(graph, "linearized_greedy", budget)
        for path in tmp_path.iterdir():
            path.write_text(content)
        fresh = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        result = fresh.solve(graph, "linearized_greedy", budget)
        assert fresh.statistics()["solver_calls"] == 1
        assert result.feasible
        # The fresh solve overwrote the bad file: the next process hits it.
        again = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        again.solve(graph, "linearized_greedy", budget)
        assert again.statistics()["solver_calls"] == 0
        assert again.cache.stats()["disk_hits"] == 1

    def test_dense_v1_schedule_file_is_a_miss_and_is_overwritten(self, tmp_path):
        import json

        graph = make_chain_train()
        budget = ample_budget(graph)
        service = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        original = service.solve(graph, "linearized_greedy", budget)
        (path,) = tmp_path.iterdir()
        # Rewrite the entry as a file from before the sparse schedule format:
        # the same result with dense 0/1 ``R``/``S`` rows.
        payload = json.loads(path.read_text())
        payload["schedule"] = json.dumps(dict(
            json.loads(payload["schedule"]),
            format="repro.checkmate.schedule/v1",
            R=original.matrices.R.astype(int).tolist(),
            S=original.matrices.S.astype(int).tolist()))
        path.write_text(json.dumps(payload))

        fresh = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        result = fresh.solve(graph, "linearized_greedy", budget)
        assert fresh.statistics()["solver_calls"] == 1
        assert np.array_equal(result.matrices.R, original.matrices.R)
        rewritten = json.loads(json.loads(path.read_text())["schedule"])
        assert rewritten["format"] == "repro.checkmate.schedule/v2"

        third = fresh_service(cache=PlanCache(cache_dir=str(tmp_path)))
        third.solve(graph, "linearized_greedy", budget)
        assert third.statistics()["solver_calls"] == 0


    def test_remember_fills_only_the_memory_tier(self, tmp_path):
        graph = make_chain_train()
        budget = tight_budget(graph, 0.6)
        solver = fresh_service(cache=PlanCache(cache_dir=str(tmp_path / "a")))
        result = solver.solve(graph, "checkmate_ilp", budget)
        cache = PlanCache(cache_dir=str(tmp_path / "b"))
        key, _ = solver._plan_lookup(
            graph, solver.registry.get("checkmate_ilp"), budget,
            SolverOptions())
        cache.remember(key, result)
        assert not any((tmp_path / "b").iterdir())
        assert cache.get(key, graph) is result
        cache.put(key, result)
        assert len(list((tmp_path / "b").iterdir())) == 1


class TestSweep:
    def test_parallel_identical_to_sequential(self):
        graph = make_chain_train()
        budgets = [tight_budget(graph, f) for f in (0.55, 0.7, 0.9)]
        strategies = ("checkpoint_all", "linearized_greedy", "checkmate_approx")
        sequential = fresh_service().sweep(
            make_chain_train(), fresh_service().grid(strategies, budgets),
            options=SolverOptions(time_limit_s=30), parallel=False)
        parallel = fresh_service().sweep(
            make_chain_train(), fresh_service().grid(strategies, budgets),
            options=SolverOptions(time_limit_s=30), parallel=True, max_workers=4)
        assert len(sequential) == len(parallel) == len(strategies) * len(budgets)
        for seq, par in zip(sequential, parallel):
            assert seq.strategy == par.strategy
            assert seq.feasible == par.feasible
            assert seq.compute_cost == par.compute_cost
            assert seq.peak_memory == par.peak_memory
            if seq.matrices is None:
                assert par.matrices is None
            else:
                assert np.array_equal(seq.matrices.R, par.matrices.R)
                assert np.array_equal(seq.matrices.S, par.matrices.S)

    def test_results_keep_cell_order(self):
        graph = make_chain_train()
        cells = [SweepCell("checkpoint_all", None),
                 SweepCell("linearized_sqrt_n", tight_budget(graph, 0.8)),
                 SweepCell("checkpoint_all", tight_budget(graph, 0.9))]
        results = fresh_service().sweep(graph, cells, max_workers=3)
        assert [r.budget for r in results] == [None, tight_budget(graph, 0.8),
                                               tight_budget(graph, 0.9)]

    def test_unknown_strategy_fails_before_solving(self):
        graph = make_chain_train()
        service = fresh_service()
        with pytest.raises(KeyError):
            service.sweep(graph, [("checkpoint_all", None), ("nope", None)])
        assert service.statistics()["solver_calls"] == 0

    def test_empty_cells(self):
        assert fresh_service().sweep(make_chain_train(), []) == []

    def test_duplicate_cells_solved_once(self):
        # budget_grid can emit duplicate budgets on tiny graphs; identical
        # cells in one sweep must be single-flighted, not raced in parallel.
        graph = make_chain_train()
        budget = ample_budget(graph)
        service = fresh_service()
        results = service.sweep(graph, [("checkmate_approx", budget)] * 4,
                                max_workers=4)
        assert len(results) == 4
        assert service.statistics()["solver_calls"] == 1
        assert all(r is results[0] for r in results)

    def test_warm_cache_sweep_is_solver_free(self):
        graph = make_chain_train()
        budgets = [tight_budget(graph, f) for f in (0.6, 0.8)]
        service = fresh_service()
        cells = service.grid(("checkpoint_all", "checkmate_approx"), budgets)
        service.sweep(graph, cells)
        calls_after_cold = service.statistics()["solver_calls"]
        # checkpoint_all has no budget knob but distinct budgets are distinct
        # cells; every cell must have invoked a solver exactly once.
        assert calls_after_cold == len(cells)
        service.sweep(graph, cells)
        assert service.statistics()["solver_calls"] == calls_after_cold


class TestBudgetSweepThroughService:
    #: Inline replica of the pre-service sequential Figure-5 loop, kept as the
    #: reference semantics for the experiment.
    @staticmethod
    def _seed_budget_sweep(graph, budgets, strategies, ilp_time_limit_s=120.0):
        from repro.baselines.griewank import is_linear_forward_graph
        from repro.solvers.common import build_scheduled_result

        def solve_one(info, budget):
            kwargs = {}
            if info.key == "checkmate_ilp":
                kwargs["time_limit_s"] = ilp_time_limit_s
            try:
                return info.solve(graph, budget, **kwargs)
            except ValueError as exc:
                return build_scheduled_result(info.key, graph, None, budget=budget,
                                              feasible=False,
                                              solver_status=f"not-applicable: {exc}")

        is_linear = is_linear_forward_graph(graph)
        points = []
        for key in strategies:
            info = STRATEGIES[key]
            if info.linear_only and not is_linear:
                continue
            if not info.has_budget_knob:
                result = solve_one(info, max(budgets))
                for budget in budgets:
                    fits = result.feasible and result.peak_memory <= budget
                    points.append((key, budget, fits,
                                   result.compute_cost if fits else float("inf"),
                                   result.peak_memory))
                continue
            for budget in budgets:
                result = solve_one(info, budget)
                ok = result.feasible and result.peak_memory <= budget
                points.append((key, budget, ok,
                               result.compute_cost if ok else float("inf"),
                               result.peak_memory if result.matrices is not None else 0))
        return points

    def test_unet_preset_identical_to_seed_loop_and_cached(self):
        """Acceptance: U-Net sweep matches the seed loop; warm rerun solves nothing."""
        graph = build_training_graph("unet", scale="ci")
        budgets = budget_grid(graph, num_budgets=3, low_fraction=0.55)
        strategies = ("checkpoint_all", "ap_sqrt_n", "ap_greedy",
                      "linearized_sqrt_n", "linearized_greedy", "checkmate_approx")

        expected = self._seed_budget_sweep(graph, budgets, strategies)
        service = fresh_service()
        points = budget_sweep(graph, budgets, strategies=strategies, service=service)

        assert [(p.strategy, p.budget, p.feasible, p.compute_cost, p.peak_memory)
                for p in points] == expected

        # Warm rerun: identical points, zero solver invocations.
        calls_after_cold = service.statistics()["solver_calls"]
        assert calls_after_cold > 0
        again = budget_sweep(graph, budgets, strategies=strategies, service=service)
        assert service.statistics()["solver_calls"] == calls_after_cold
        assert [(p.strategy, p.budget, p.feasible, p.compute_cost, p.peak_memory)
                for p in again] == expected

    def test_linear_chain_identical_to_seed_loop(self, tiny_vgg_train):
        budgets = budget_grid(tiny_vgg_train, num_budgets=2, low_fraction=0.6)
        strategies = ("checkpoint_all", "chen_sqrt_n", "chen_greedy",
                      "linearized_greedy", "checkmate_approx")
        expected = self._seed_budget_sweep(tiny_vgg_train, budgets, strategies)
        points = budget_sweep(tiny_vgg_train, budgets, strategies=strategies,
                              service=fresh_service())
        assert [(p.strategy, p.budget, p.feasible, p.compute_cost, p.peak_memory)
                for p in points] == expected

    def test_sequential_flag_matches_parallel(self):
        graph = make_chain_train()
        budgets = budget_grid(graph, num_budgets=2)
        kwargs = dict(strategies=("checkpoint_all", "linearized_greedy"),
                      ilp_time_limit_s=30)
        par = budget_sweep(graph, budgets, service=fresh_service(), **kwargs)
        seq = budget_sweep(graph, budgets, service=fresh_service(), parallel=False,
                           **kwargs)
        assert [(p.strategy, p.budget, p.feasible, p.compute_cost) for p in par] \
            == [(p.strategy, p.budget, p.feasible, p.compute_cost) for p in seq]


class TestStrategyMatrixFromRegistry:
    def test_table1_rendering_excludes_extra_solvers(self):
        from repro.experiments import strategy_matrix_rows

        service = fresh_service()
        assert len(service.registry) > 10  # min_r, portfolio, race registered
        rows = strategy_matrix_rows(service)
        assert len(rows) == 10
        keys = {r[0] for r in rows}
        assert "min_r" not in keys and "race" not in keys


class TestLazyPlan:
    """``ScheduledResult.plan`` is lowered on first access, never by a solve."""

    @staticmethod
    def count_lowerings(monkeypatch) -> list:
        from repro.core import scheduler

        calls = []
        lower = scheduler.generate_execution_plan

        def counting(*args, **kwargs):
            calls.append(args)
            return lower(*args, **kwargs)

        monkeypatch.setattr(scheduler, "generate_execution_plan", counting)
        return calls

    def test_every_feasible_result_has_a_plan(self, tiny_vgg_train):
        graph = tiny_vgg_train
        budget = tight_budget(graph, 0.6)
        service = fresh_service(cache=None)
        # allowance=0 keeps the LP-rounding budget above the constant
        # overhead.
        default = SolverOptions(time_limit_s=60.0, allowance=0.0,
                                num_samples=4, seed=0)
        options = {
            "min_r": SolverOptions(checkpoints=tuple(range(0, graph.size, 3))),
            "race": SolverOptions(deadline_s=30.0, num_samples=4, seed=0),
        }
        registry = default_registry()
        feasible = set()
        for spec in registry:
            result = service.solve(graph, spec.key, budget,
                                   options.get(spec.key, default), strict=False)
            if not result.feasible:
                continue
            feasible.add(spec.key)
            assert result.plan is not None, spec.key
            assert result.plan.total_computations() == int(result.matrices.R.sum()), \
                spec.key
        assert {spec.key for spec in registry} <= feasible

    def test_solve_and_wire_roundtrip_lower_nothing(self, monkeypatch):
        from repro.utils.serialization import result_from_wire, result_to_wire

        calls = self.count_lowerings(monkeypatch)
        graph = make_chain_train()
        service = fresh_service(cache=None)
        result = service.solve(graph, "checkmate_ilp", tight_budget(graph, 0.6))
        restored = result_from_wire(result_to_wire(result), graph)
        assert result.feasible and restored.feasible
        infeasible = service.solve(graph, "checkmate_ilp",
                                   float(graph.constant_overhead))
        assert not infeasible.feasible and infeasible.plan is None
        assert calls == []

        plan = restored.plan
        assert plan is not None and len(calls) == 1
        assert restored.plan is plan and len(calls) == 1  # memoized
        assert plan.total_computations() == int(restored.matrices.R.sum())

    def test_racing_first_accesses_agree(self):
        # No lock guards the memo: racing first reads may each lower the plan,
        # but every reader must get a complete plan of the same schedule.
        graph = make_chain_train()
        result = fresh_service(cache=None).solve(graph, "checkmate_ilp",
                                                 tight_budget(graph, 0.6))
        plans = []
        barrier = threading.Barrier(8)

        def read():
            barrier.wait(timeout=10)
            plans.append(result.plan)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(plans) == 8
        expected = {node: int(count) for node, count in
                    enumerate(result.matrices.recomputation_counts()) if count}
        assert all(plan.compute_counts() == expected for plan in plans)
        assert any(result.plan is plan for plan in plans)  # memoized

    def test_payload_with_old_plan_flag_still_decodes(self, monkeypatch):
        from repro.utils.serialization import (
            RESULT_FORMAT,
            result_from_wire,
            result_to_wire,
        )

        calls = self.count_lowerings(monkeypatch)
        graph = make_chain_train()
        result = fresh_service(cache=None).solve(graph, "checkpoint_all")
        # Disk-cache files written before the plan became lazy carry a
        # ``has_plan`` flag; ``false`` meant "no plan was lowered".
        payload = dict(result_to_wire(result), has_plan=False)
        assert payload["format"] == RESULT_FORMAT == "repro.checkmate.result/v1"
        restored = result_from_wire(payload, graph)
        assert calls == []
        assert restored.plan is not None and len(calls) == 1
        assert restored.plan.total_computations() == graph.size
