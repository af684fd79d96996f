"""Property-based differential tests across the whole solver registry.

Two layers of randomized cross-checking:

* A **seeded matrix** of 200 random-DAG cases (25 seeds x 4 topologies x 2
  budget fractions -- the same matrix the CI differential gate runs on every
  supported Python) driving the four rounding-portfolio schemes and the
  exact ILP through the same budgets.  Differential invariants: zero
  correctness-constraint violations anywhere, feasible claims respect the
  budget, no approximation ever beats the exact optimum, the threshold sweep
  dominates the fixed threshold, and two schemes match test-side references
  for the paper's Algorithm 2 as written: ``fixed_half`` (the scheme
  ``checkmate_approx`` serves) is ``solve_min_r(S* > 0.5)`` on the same LP,
  and ``randomized`` the cheapest fitting completion of the seeded
  ``rng.random(S.shape) < S*`` stream.  Whenever the exact ILP answers ``gap-certified`` (its LP rounding met the LP bound), the
  certificate is checked against HiGHS run directly on the same formulation
  -- a liveness certificate (the no-recompute schedule fit) must also cost
  exactly ``sum(C)``, which HiGHS must not undercut; six model-preset cells
  check the same on real graphs, each pinned to the certificate (or HiGHS)
  that answers it.  Every ``optimal`` HiGHS verdict's lower bound is
  checked in ``compute_cost`` units: at most the cost, within ``mip_gap``.

* A **hypothesis** layer (seeded, shrinkable) running *every* registered
  strategy -- heuristics, exact solvers, portfolio, race -- over random
  layered DAGs and asserting the registry-wide contract: valid schedules
  only, budget respected when feasibility is claimed, never better than the
  exact ILP.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the seed matrix still runs without it
    HAVE_HYPOTHESIS = False

from repro.core import (
    checkpoint_all_schedule,
    random_layered_dag,
    schedule_compute_cost,
    schedule_peak_memory,
    validate_correctness_constraints,
)
from repro.experiments import build_training_graph
from repro.service import SolveService, SolverOptions, default_registry
from repro.solvers import (
    PORTFOLIO_SCHEMES,
    get_lp_relaxation_cache,
    min_feasible_budget_floor,
    solve_min_r,
    solve_rounding_portfolio,
)
from repro.solvers.compiled import formulation_and_arrays
from repro.solvers.ilp import solve_ilp_rematerialization

from helpers import tight_budget
from oracles import highs_milp

#: Objective comparisons tolerate solver-side rounding only.
_TOL = 1e-6

#: The fixed seed matrix: 25 seeds x 4 topologies x 2 budget fractions = 200
#: random-graph cases.  CI runs this exact matrix on every supported Python.
_SEEDS = range(25)
_TOPOLOGIES = ((3, 1), (4, 2), (5, 1), (5, 2))
_FRACTIONS = (0.4, 0.7)
_CASES = [(seed, layers, width, fraction)
          for seed in _SEEDS
          for layers, width in _TOPOLOGIES
          for fraction in _FRACTIONS]
assert len(_CASES) >= 200

#: Chunk the matrix so pytest reports progress and failures stay addressable.
_CHUNK = 25
_NUM_CHUNKS = (len(_CASES) + _CHUNK - 1) // _CHUNK

#: Per-scheme sample counts kept small: the point is differential coverage,
#: not search quality.
_SAMPLES = 6


def _case_graph(seed: int, layers: int, width: int):
    return random_layered_dag(layers, width, seed=seed,
                              name=f"diff-{layers}x{width}-s{seed}")


def _algorithm2_fixed_half(graph, S_star):
    """Algorithm 2 with deterministic rounding: ``S = 1[S* > 0.5]``, then
    the conditionally optimal ``R``."""
    return solve_min_r(graph, (S_star > 0.5).astype(np.uint8))


def _algorithm2_randomized(graph, S_star, budget, num_samples, seed):
    """Algorithm 2 with randomized rounding: ``num_samples`` Bernoulli draws
    ``rng.random(S.shape) < S*``; the cheapest completion that fits wins
    (the first one on a tie), ``None`` when none fits."""
    rng = np.random.default_rng(seed)
    best, best_cost = None, float("inf")
    for _ in range(num_samples):
        matrices = solve_min_r(graph, (rng.random(S_star.shape) < S_star).astype(np.uint8))
        if schedule_peak_memory(graph, matrices) > budget:
            continue
        cost = schedule_compute_cost(graph, matrices)
        if cost < best_cost:
            best, best_cost = matrices, cost
    return best


def _assert_matches(result, reference, budget, graph, label) -> None:
    """``result`` is feasible exactly when ``reference`` fits, with equal matrices."""
    fits = reference is not None and schedule_peak_memory(graph, reference) <= budget
    assert result.feasible == fits, f"{label} disagrees with Algorithm 2 on {graph.name}"
    if fits:
        assert np.array_equal(result.matrices.R, reference.R), label
        assert np.array_equal(result.matrices.S, reference.S), label


def _assert_schedule_contract(result, graph, budget, ilp) -> None:
    """The registry-wide differential contract for one solve result."""
    label = f"{result.strategy} on {graph.name}"
    if result.matrices is not None:
        violations = validate_correctness_constraints(graph, result.matrices)
        assert violations == [], f"{label}: constraint violations {violations[:3]}"
    if result.feasible:
        assert result.matrices is not None, f"{label}: feasible without matrices"
        peak = schedule_peak_memory(graph, result.matrices)
        assert peak <= budget, \
            f"{label}: claims feasible but peak {peak} > budget {budget}"
        if ilp is not None and ilp.feasible:
            assert result.compute_cost >= ilp.compute_cost - _TOL * ilp.compute_cost, \
                f"{label}: beats the exact ILP ({result.compute_cost} < " \
                f"{ilp.compute_cost})"


def _assert_certificate_sound(result, graph, budget, mip_gap=1e-4) -> None:
    """A ``gap-certified`` result is valid, fits, and is within ``mip_gap`` of
    the optimum HiGHS finds on the same formulation with no shortcut."""
    if result.solver_status != "gap-certified":
        return
    label = f"certified {graph.name} at {budget}"
    assert validate_correctness_constraints(graph, result.matrices) == [], label
    assert schedule_peak_memory(graph, result.matrices) <= budget, label
    formulation, arrays = formulation_and_arrays(graph, budget)
    res = highs_milp(arrays, mip_gap=mip_gap)
    assert res.x is not None, f"{label}: HiGHS finds no schedule"
    optimum = formulation.objective_value(np.asarray(res.x))
    assert result.compute_cost <= (1.0 + mip_gap) * optimum, \
        f"{label}: cost {result.compute_cost} vs HiGHS optimum {optimum}"
    if result.extra["certificate"] == "liveness":
        total = graph.total_cost()
        assert result.compute_cost == total == result.extra["objective_lower_bound"], label
        assert optimum >= total - _TOL * total, \
            f"{label}: HiGHS optimum {optimum} below sum(C) {total}"


def _assert_dual_bound_sound(result, mip_gap=1e-4) -> None:
    """An ``optimal`` HiGHS result's ``objective_lower_bound`` is in
    ``compute_cost`` units: at most the cost, and within ``mip_gap`` of it."""
    if result.solver_status != "optimal":
        return
    label = f"optimal {result.graph.name} at {result.budget}"
    bound, cost = result.extra["objective_lower_bound"], result.compute_cost
    assert bound is not None, label
    assert bound <= cost * (1.0 + _TOL), f"{label}: bound {bound} > cost {cost}"
    assert cost <= (1.0 + mip_gap) * bound * (1.0 + _TOL), \
        f"{label}: cost {cost} outside mip_gap {mip_gap} of bound {bound}"


@pytest.mark.parametrize("chunk", range(_NUM_CHUNKS))
def test_portfolio_differential_seed_matrix(chunk):
    """200 seeded random-graph cases: portfolio vs Algorithm 2 vs exact ILP."""
    for seed, layers, width, fraction in _CASES[chunk * _CHUNK:(chunk + 1) * _CHUNK]:
        graph = _case_graph(seed, layers, width)
        budget = tight_budget(graph, fraction)
        ilp = solve_ilp_rematerialization(graph, budget)
        _assert_schedule_contract(ilp, graph, budget, None)
        _assert_certificate_sound(ilp, graph, budget)
        _assert_dual_bound_sound(ilp)

        results = {}
        for scheme in PORTFOLIO_SCHEMES:
            result = solve_rounding_portfolio(
                graph, budget, scheme=scheme, num_samples=_SAMPLES,
                seed=seed)
            _assert_schedule_contract(result, graph, budget, ilp)
            results[scheme] = result

        # The exact solver proving infeasibility is the strongest verdict: no
        # valid schedule fits, so no rounding may claim one.
        if not ilp.feasible and "infeasible" in ilp.solver_status:
            for scheme, result in results.items():
                assert not result.feasible, \
                    f"{scheme} feasible on {graph.name} where ILP proved " \
                    f"budget {budget} infeasible"

        # Oracles 1 and 2: Algorithm 2 as written, on the same LP the
        # portfolio rounded (the default 0.1 allowance).
        lp = get_lp_relaxation_cache().get(graph, budget * (1.0 - 0.1))
        fixed = results["fixed_half"]
        randomized = results["randomized"]
        if lp.S_fractional is None:
            assert not fixed.feasible and not randomized.feasible
        else:
            S_star = np.asarray(lp.S_fractional, dtype=np.float64)
            _assert_matches(fixed, _algorithm2_fixed_half(graph, S_star),
                            budget, graph, "fixed_half")
            _assert_matches(randomized,
                            _algorithm2_randomized(graph, S_star, budget,
                                                   _SAMPLES, seed),
                            budget, graph, "randomized")

        # Dominance: the sweep always tries 0.5, so whenever the fixed
        # threshold is feasible the sweep is too, and at least as cheap.
        sweep = results["threshold_sweep"]
        if fixed.feasible:
            assert sweep.feasible, \
                f"threshold_sweep infeasible where fixed_half succeeded " \
                f"on {graph.name}"
            assert sweep.compute_cost <= fixed.compute_cost + _TOL, \
                f"threshold_sweep worse than its own 0.5 candidate on " \
                f"{graph.name}"


#: Model presets at a small batch, each at a tightness of the serving
#: benchmark's exact-cold cycle (0 = feasibility floor, 1 = checkpoint all),
#: plus a VGG16 cell below its no-recompute peak, with the certificate that
#: answers each (``None``: HiGHS).
_PRESET_CELLS = (("linear_cnn", 0.1, None), ("linear_cnn", 0.3, "liveness"),
                 ("resnet_tiny", 0.4, "liveness"), ("vgg16", 0.4, "liveness"),
                 ("segnet", 0.5, "liveness"), ("vgg16", 0.12, "lp-gap"))


@pytest.mark.parametrize("preset,tightness,certificate", _PRESET_CELLS,
                         ids=[f"{p}-{t}" for p, t, _ in _PRESET_CELLS])
def test_certified_presets_match_highs(preset, tightness, certificate):
    """Certify-first on real model graphs: every certified cell is valid,
    fits, and costs at most ``1 + mip_gap`` times the HiGHS optimum."""
    graph = build_training_graph(preset, batch_size=2)
    floor = min_feasible_budget_floor(graph)
    peak = schedule_peak_memory(graph, checkpoint_all_schedule(graph))
    budget = float(int(floor + tightness * (peak - floor)))
    result = solve_ilp_rematerialization(graph, budget)
    assert result.feasible
    assert result.extra.get("certificate") == certificate
    _assert_schedule_contract(result, graph, budget, None)
    _assert_certificate_sound(result, graph, budget)
    _assert_dual_bound_sound(result)


# --------------------------------------------------------------------------- #
# Registry-wide hypothesis layer
# --------------------------------------------------------------------------- #
_service = SolveService(cache=None)
_registry = default_registry()

if HAVE_HYPOTHESIS:
    _SETTINGS = dict(deadline=None, max_examples=10,
                     suppress_health_check=[HealthCheck.too_slow])

    @st.composite
    def solver_dags(draw):
        layers = draw(st.integers(min_value=3, max_value=5))
        width = draw(st.integers(min_value=1, max_value=2))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        return random_layered_dag(layers, width, seed=seed)


def _options_for(spec, graph) -> SolverOptions:
    """Cheap options per strategy; min_r gets an explicit checkpoint set."""
    if spec.key == "min_r":
        return SolverOptions(checkpoints=tuple(range(0, graph.size, 2)))
    if spec.key == "race":
        return SolverOptions(deadline_s=30.0, num_samples=4, seed=0)
    return SolverOptions(time_limit_s=60.0, num_samples=4, seed=0)


def _registry_contract_case(graph, fraction):
    """All registered strategies: valid, budget-honest, never beat the ILP."""
    budget = tight_budget(graph, fraction)
    ilp = _service.solve(graph, "checkmate_ilp", budget,
                         SolverOptions(time_limit_s=60.0))
    _assert_dual_bound_sound(ilp)
    for spec in _registry:
        if spec.key == "checkmate_ilp":
            result = ilp
        else:
            result = _service.solve(graph, spec.key, budget,
                                    _options_for(spec, graph), strict=False)
        _assert_schedule_contract(result, graph, budget, ilp)


if HAVE_HYPOTHESIS:
    @given(solver_dags(), st.sampled_from(_FRACTIONS))
    @settings(**_SETTINGS)
    def test_every_registry_strategy_respects_the_contract(graph, fraction):
        _registry_contract_case(graph, fraction)
else:  # fallback: a fixed slice of the same space, so the gate never vanishes
    @pytest.mark.parametrize("seed", range(5))
    def test_every_registry_strategy_respects_the_contract(seed):
        _registry_contract_case(random_layered_dag(4, 2, seed=seed), 0.6)
