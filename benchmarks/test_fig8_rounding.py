"""Figure 8 + §5.1: deterministic vs randomized two-phase rounding; naive rounding fails."""

from bench_helpers import MiB, run_once

from repro.experiments import naive_rounding_study, rounding_comparison
from repro.experiments.budget_sweep import budget_grid


def test_fig8_rounding_comparison(benchmark, vgg16_flop_graph):
    budget = budget_grid(vgg16_flop_graph, num_budgets=4, low_fraction=0.6)[1]
    comp = run_once(benchmark, rounding_comparison, vgg16_flop_graph, budget,
                    num_randomized_samples=10, include_ilp=True,
                    include_portfolio=True, ilp_time_limit_s=90)

    print(f"\n[Figure 8] {comp.graph_name} at budget {budget / MiB:.0f} MiB")
    print(f"  checkpoint-all: cost={comp.checkpoint_all_cost:.3g}, "
          f"mem={comp.checkpoint_all_memory / MiB:.0f} MiB")
    if comp.ilp_cost is not None:
        print(f"  ILP optimum:    cost={comp.ilp_cost:.3g}, mem={comp.ilp_memory / MiB:.0f} MiB")
    if comp.deterministic_cost is not None:
        print(f"  deterministic:  cost={comp.deterministic_cost:.3g}, "
              f"mem={comp.deterministic_memory / MiB:.0f} MiB")
    feasible_rand = [p for p in comp.randomized_points if p["feasible"]]
    print(f"  randomized:     {len(feasible_rand)}/{len(comp.randomized_points)} samples feasible")

    assert comp.deterministic_cost is not None
    if comp.ilp_cost is not None:
        # Rounding can never beat the optimum.
        assert comp.deterministic_cost >= comp.ilp_cost - 1e-6
    # Paper shape: deterministic rounding produces consistently lower cost than
    # the average randomized-rounding sample.
    if feasible_rand:
        mean_rand = sum(p["cost"] for p in feasible_rand) / len(feasible_rand)
        assert comp.deterministic_cost <= mean_rand + 1e-6

    # Portfolio overlay: checkmate_approx (the fixed-0.5 scheme) is the
    # deterministic rounding served through the registry (same LP, same
    # threshold, same min-R completion),
    # and the threshold sweep always includes 0.5 among its candidates.
    for key, point in comp.portfolio_points.items():
        print(f"  {key:>22s}: " + (
            f"cost={point['cost']:.3g}, mem={point['memory'] / MiB:.0f} MiB"
            if point else "infeasible"))
        if point and comp.ilp_cost is not None:
            assert point["cost"] >= comp.ilp_cost - 1e-6, key
    fixed = comp.portfolio_points["checkmate_approx"]
    assert fixed is not None and abs(fixed["cost"] - comp.deterministic_cost) <= 1e-6
    sweep = comp.portfolio_points["approx_threshold_sweep"]
    assert sweep is not None and sweep["cost"] <= fixed["cost"] + 1e-6


def test_sec51_naive_rounding_infeasibility(benchmark, vgg16_flop_graph):
    """§5.1: naive rounding of both R* and S* essentially never yields feasible schedules."""
    budget = budget_grid(vgg16_flop_graph, num_budgets=4, low_fraction=0.5)[0]
    stats = run_once(benchmark, naive_rounding_study, vgg16_flop_graph, budget,
                     num_samples=200)

    print(f"\n[Section 5.1] naive rounding feasibility on {vgg16_flop_graph.name}")
    for mode, s in stats.items():
        print(f"  {mode:>13s}: {s['num_feasible']}/{s['num_samples']} feasible "
              f"({s['num_correct']} dependency-correct)")

    # The paper reports 0 feasible samples out of 50 000 (randomized) and an
    # infeasible result for deterministic rounding.
    assert stats["deterministic"]["num_feasible"] == 0
    assert stats["randomized"]["num_feasible"] <= 0.02 * stats["randomized"]["num_samples"]
