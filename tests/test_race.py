"""Deadline, cancellation and cache-hygiene tests for the race meta-solver."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import random_layered_dag, schedule_peak_memory
from repro.service import SolveService, SolverOptions, default_registry
from repro.service.cache import PlanCache
from repro.service.registry import SolverSpec
from repro.service.solve import _cacheable
from repro.solvers import DEFAULT_ENTRANTS, build_scheduled_result, solve_race

from helpers import tight_budget

_TOL = 1e-6


def _graph(seed: int = 7, layers: int = 5, width: int = 2):
    return random_layered_dag(layers, width, seed=seed,
                              name=f"race-{layers}x{width}-s{seed}")


def _slow_stub_registry(max_sleep_s: float = 30.0, poll_s: float = 0.02):
    """Default registry plus a cooperative stub that stalls until cancelled."""
    registry = default_registry()

    def slow_solve(graph, budget=None, *, should_cancel=None, **_kwargs):
        start = time.monotonic()
        while time.monotonic() - start < max_sleep_s:
            if should_cancel is not None and should_cancel():
                return build_scheduled_result(
                    "slow_stub", graph, None, budget=int(budget),
                    feasible=False,
                    solve_time_s=time.monotonic() - start,
                    solver_status="stub-cancelled")
            time.sleep(poll_s)
        raise AssertionError("slow stub ran to its full sleep: cancel never fired")

    registry.register(SolverSpec(
        key="slow_stub",
        description="Test stub: sleeps forever, polling should_cancel.",
        solve=slow_solve,
        option_map={},
        accepts_should_cancel=True,
    ))
    return registry


def _race_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-race") and t.is_alive()]


def test_race_returns_best_so_far_under_slow_entrant():
    """A stalled entrant must not block the race past its deadline."""
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    registry = _slow_stub_registry()

    start = time.monotonic()
    result = solve_race(graph, budget, deadline_s=3.0,
                        entrants=("checkmate_approx", "slow_stub"),
                        registry=registry)
    elapsed = time.monotonic() - start

    assert result.feasible, result.solver_status
    assert schedule_peak_memory(graph, result.matrices) <= budget
    race = result.extra["race"]
    assert race["winner"] == "checkmate_approx"
    assert race["deadline_hit"] is True
    # The stub either got reaped mid-sleep or was cancelled before starting.
    stub_lane = next(l for l in race["entrants"] if l["strategy"] == "slow_stub")
    assert "cancelled" in stub_lane["status"]
    assert not stub_lane["feasible"]
    # Deadline plus the stub's poll latency plus join slack, nowhere near 30 s.
    assert elapsed < 10.0, f"race overran its deadline: {elapsed:.1f}s"
    assert _race_threads() == []


def test_race_deadline_zero_is_honored_literally():
    """``deadline_s=0`` starts nothing and reports the deadline as exhausted."""
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    result = solve_race(graph, budget, deadline_s=0.0)
    assert not result.feasible
    assert result.solver_status == "race-deadline-exhausted"
    race = result.extra["race"]
    assert race["deadline_hit"] is True
    assert race["winner"] is None
    assert all(lane["status"] == "not-started" for lane in race["entrants"])
    assert _race_threads() == []


def test_race_caller_cancel_returns_best_so_far_or_cancelled_verdict():
    """A caller cancel reaps the pool; banked results still win."""
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    registry = _slow_stub_registry()
    fired = threading.Event()

    # Let the fast entrant land, then cancel while the stub is still asleep.
    def should_cancel():
        return fired.is_set()

    def fire_later():
        time.sleep(1.0)
        fired.set()

    trigger = threading.Thread(target=fire_later)
    trigger.start()
    try:
        result = solve_race(graph, budget, deadline_s=60.0,
                            entrants=("checkmate_approx", "slow_stub"),
                            registry=registry,
                            should_cancel=should_cancel)
    finally:
        trigger.join()

    race = result.extra["race"]
    assert race["cancelled"] is True
    assert race["deadline_hit"] is False
    if result.feasible:
        assert race["winner"] == "checkmate_approx"
    else:
        assert result.solver_status == "race-cancelled"
    assert _race_threads() == []


def test_race_objective_not_worse_than_any_entrant():
    """With a generous deadline the race must match its best entrant."""
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    registry = default_registry()
    race = solve_race(graph, budget, deadline_s=120.0, seed=0,
                      num_samples=4, registry=registry)
    assert race.feasible, race.solver_status

    options = SolverOptions(num_samples=4, seed=0)
    for key in DEFAULT_ENTRANTS:
        spec = registry.get(key)
        entrant = spec.solve(graph, budget, **options.kwargs_for(spec.option_map))
        if entrant.feasible:
            assert race.compute_cost <= entrant.compute_cost + _TOL, \
                f"race ({race.compute_cost}) worse than {key} " \
                f"({entrant.compute_cost})"


def test_race_argument_validation():
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    with pytest.raises(ValueError, match="memory budget"):
        solve_race(graph, None)
    with pytest.raises(ValueError, match="at least one entrant"):
        solve_race(graph, budget, entrants=())
    with pytest.raises(ValueError, match="race itself"):
        solve_race(graph, budget, entrants=("race",))


# --------------------------------------------------------------------------- #
# Plan-cache hygiene
# --------------------------------------------------------------------------- #
def test_race_deadline_exhausted_verdict_is_not_cached():
    """A load-dependent no-schedule verdict must not poison the plan cache."""
    service = SolveService(cache=PlanCache(max_entries=8))
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    options = SolverOptions(deadline_s=0.0)
    for _ in range(2):
        result = service.solve(graph, "race", budget, options)
        assert not result.feasible
        assert result.solver_status == "race-deadline-exhausted"
    assert service.statistics()["solver_calls"] == 2, "second solve replayed from cache"
    assert service.statistics()["cache_hits"] == 0
    assert len(service.cache) == 0


def test_feasible_race_result_is_cached_per_deadline():
    """Feasible races cache normally, keyed by their deadline (no aliasing)."""
    service = SolveService(cache=PlanCache(max_entries=8))
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    entrants = ("checkmate_approx",)

    first = service.solve(graph, "race", budget, SolverOptions(
        deadline_s=60.0, entrants=entrants))
    again = service.solve(graph, "race", budget, SolverOptions(
        deadline_s=60.0, entrants=entrants))
    assert first.feasible and again.feasible
    assert service.statistics()["solver_calls"] == 1
    assert service.statistics()["cache_hits"] == 1

    # A different SLO is a different cache cell: deadline_s is in the race's
    # option map, so results raced under different deadlines never alias.
    other = service.solve(graph, "race", budget, SolverOptions(
        deadline_s=90.0, entrants=entrants))
    assert other.feasible
    assert service.statistics()["solver_calls"] == 2
    assert len(service.cache) == 2


def test_cancel_cut_feasible_results_are_not_cacheable():
    """Best-so-far schedules cut short by a cancel are load-dependent."""
    graph = _graph()
    # Proven (deterministic) rounding failure: cacheable.
    clean = build_scheduled_result(
        "checkmate-approx-lp", graph, None, budget=100, feasible=False,
        solve_time_s=0.0, solver_status="rounding-exceeded-budget")
    assert _cacheable(clean), "proven rounding failure should cache"
    # A feasible schedule from an uninterrupted solve: cacheable.
    assert _cacheable(SimpleNamespace(feasible=True, solver_status="ok"))
    # Feasible but the cancel hook cut the search short: a best-so-far
    # schedule under a key whose full search finds better.  Not cacheable.
    assert not _cacheable(
        SimpleNamespace(feasible=True, solver_status="ok-cancelled"))
    # Load-dependent race verdicts: not cacheable.
    for status in ("race-no-feasible", "race-deadline-exhausted",
                   "race-cancelled"):
        verdict = build_scheduled_result(
            "race", graph, None, budget=100, feasible=False,
            solve_time_s=0.0, solver_status=status)
        assert not _cacheable(verdict), f"{status} must not cache"


def test_race_statistics_flow_into_service_counters():
    """record_race: wins, deadline hits and reaped entrants all surface."""
    service = SolveService(cache=None)
    graph = _graph()
    budget = tight_budget(graph, 0.6)
    service.solve(graph, "race", budget, SolverOptions(
        deadline_s=60.0, entrants=("checkmate_approx",)))
    service.solve(graph, "race", budget, SolverOptions(
        deadline_s=0.0))
    snap = service.statistics()["race"]
    assert snap["races"] == 2
    assert snap["wins"] == 1
    assert snap["no_feasible"] == 1
    assert snap["deadline_hits"] == 1
    assert snap["entrants_finished"] >= 1
    assert snap["entrants_cancelled"] >= len(DEFAULT_ENTRANTS)
    assert _race_threads() == []


def test_race_runs_the_entrants_of_its_services_registry():
    """Entrants resolve in the registry the race is served from: one the
    service added runs, and its override of a default entrant replaces it."""
    from repro.solvers import solve_ilp_rematerialization

    from helpers import below_liveness_budget

    calls = []

    def counting_ilp(graph, budget=None, **kwargs):
        calls.append(budget)
        return solve_ilp_rematerialization(graph, budget, **kwargs)

    graph = _graph()
    budget = below_liveness_budget(graph, 0.7)
    registry = default_registry()
    registry.register(SolverSpec(key="my_ilp", description="Counting ILP.",
                                 solve=counting_ilp))
    registry.register(SolverSpec(key="checkmate_ilp", description="Counting ILP.",
                                 solve=counting_ilp), overwrite=True)
    service = SolveService(registry=registry, cache=None)
    for entrant in ("my_ilp", "checkmate_ilp"):
        result = service.solve(graph, "race", budget, SolverOptions(
            deadline_s=60.0, entrants=(entrant,)))
        assert result.feasible, result.solver_status
        assert result.extra["race"]["winner"] == entrant
    assert calls == [budget, budget]


def test_liveness_certified_race_starts_no_lane(monkeypatch):
    """With the exact ILP entered and the no-recompute schedule fitting, the
    race answers from the certificate: no lane runs and no LP is solved."""
    import repro.solvers.rounding_portfolio as portfolio
    from helpers import no_recompute_peak

    lp_solves = []
    real_lp = portfolio.solve_lp_relaxation
    monkeypatch.setattr(portfolio, "solve_lp_relaxation",
                        lambda *a, **k: lp_solves.append(1) or real_lp(*a, **k))
    monkeypatch.setattr(portfolio, "_lp_cache", portfolio.LPRelaxationCache())
    graph = _graph(seed=11)
    peak = no_recompute_peak(graph)
    result = solve_race(graph, peak, deadline_s=60.0)
    assert result.feasible and result.solver_status == "ok"
    assert result.compute_cost == graph.total_cost()
    assert result.extra["certificate"] == "liveness"
    race = result.extra["race"]
    assert race["winner"] == "checkmate_ilp"
    assert race["deadline_hit"] is False
    by_key = {lane["strategy"]: lane for lane in race["entrants"]}
    assert by_key["checkmate_ilp"]["status"] == "gap-certified"
    assert all(lane["status"] == "skipped-certified"
               for key, lane in by_key.items() if key != "checkmate_ilp")
    assert lp_solves == []
    assert _race_threads() == []

    # Without the ILP entrant, or one byte below the peak, the lanes run.
    lanes = solve_race(graph, peak, deadline_s=60.0,
                       entrants=("checkmate_approx",)).extra["race"]["entrants"]
    assert lanes[0]["status"] != "skipped-certified"
    below = solve_race(graph, peak - 1, deadline_s=60.0)
    assert below.extra.get("certificate") != "liveness"
    assert lp_solves


def test_cancelled_exact_lane_returns_within_a_fifth_of_a_second(monkeypatch):
    """HiGHS polls the cancel hook from its interrupt callbacks, so a caller
    cancel in the middle of branch-and-cut ends the exact lane -- and the
    race -- within 0.2 s.  The abandoned HiGHS stops at its next callback."""
    import repro.solvers.ilp as ilp_module
    from repro.experiments import build_training_graph

    from helpers import below_liveness_budget

    highs_started = threading.Event()
    real_milp = ilp_module.milp

    def flagging_milp(*args, **kwargs):
        highs_started.set()
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(ilp_module, "milp", flagging_milp)
    # Below its no-recompute peak, resnet_tiny spends tens of seconds in
    # HiGHS proving the bound.
    graph = build_training_graph("resnet_tiny")
    budget = below_liveness_budget(graph, 0.5)
    fired = threading.Event()
    fired_at = []

    def cancel_mid_search():
        assert highs_started.wait(60)
        time.sleep(0.5)
        fired_at.append(time.monotonic())
        fired.set()

    trigger = threading.Thread(target=cancel_mid_search)
    trigger.start()
    try:
        result = solve_race(graph, budget, deadline_s=120.0,
                            entrants=("checkmate_ilp",),
                            should_cancel=fired.is_set)
    finally:
        trigger.join()
    latency = time.monotonic() - fired_at[0]
    assert latency <= 0.2, latency
    race = result.extra["race"]
    assert race["cancelled"] is True and race["deadline_hit"] is False
    (lane,) = race["entrants"]
    assert lane["status"].startswith("cancelled"), lane
    assert _race_threads() == []
    abandoned = [t for t in threading.enumerate() if t.name == "repro-highs"]
    assert len(abandoned) <= 1
    for runner in abandoned:
        runner.join(10)
        assert not runner.is_alive()
