"""Figure-5-style study: overhead vs memory budget for U-Net semantic segmentation.

U-Net's long encoder-decoder skip connections defeat classical checkpointing
heuristics; this example sweeps memory budgets and compares the paper's
generalized baselines against Checkmate's ILP and LP-rounding approximation,
printing the text analogue of Figure 5(c).

Run:  python examples/budget_sweep_unet.py [--paper-scale]
"""

import argparse
import time

from repro.cost_model import ProfileCostModel
from repro.experiments import budget_grid, budget_sweep, build_training_graph, format_sweep
from repro.service import SolveService

STRATEGIES = ("checkpoint_all", "ap_sqrt_n", "ap_greedy", "linearized_sqrt_n",
              "linearized_greedy", "checkmate_approx", "checkmate_ilp")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's 416x608 resolution / batch 32 "
                             "(expect long MILP solve times)")
    parser.add_argument("--budgets", type=int, default=5, help="number of budgets to sweep")
    parser.add_argument("--time-limit", type=float, default=120.0,
                        help="MILP time limit per budget (seconds)")
    args = parser.parse_args()

    scale = "paper" if args.paper_scale else "ci"
    graph = build_training_graph("unet", scale=scale, cost_model=ProfileCostModel())
    print(graph.summary())

    budgets = budget_grid(graph, num_budgets=args.budgets, low_fraction=0.4)

    # The sweep fans (strategy, budget) cells out over the solve service's
    # thread pool; a second run answers every completed cell from the plan
    # cache (only an ILP cell that timed out with no incumbent re-solves).
    service = SolveService()
    start = time.perf_counter()
    points = budget_sweep(graph, budgets, strategies=STRATEGIES,
                          ilp_time_limit_s=args.time_limit, service=service)
    cold = time.perf_counter() - start
    print(format_sweep(points))

    before = service.statistics()
    start = time.perf_counter()
    budget_sweep(graph, budgets, strategies=STRATEGIES,
                 ilp_time_limit_s=args.time_limit, service=service)
    warm = time.perf_counter() - start
    after = service.statistics()
    print(f"\ncold sweep {cold:.2f}s ({before['solver_calls']} solver calls), "
          f"warm rerun {warm:.3f}s "
          f"({after['cache_hits'] - before['cache_hits']} cache hits, "
          f"{after['solver_calls'] - before['solver_calls']} new solver calls)")

    feasible_cm = [p for p in points if p.strategy == "checkmate_ilp" and p.feasible]
    if feasible_cm:
        tightest = min(feasible_cm, key=lambda p: p.budget)
        print(f"\nCheckmate trains U-Net at {tightest.budget / 2**20:.0f} MiB with only "
              f"{100 * (tightest.overhead - 1):.1f}% compute overhead.")


if __name__ == "__main__":
    main()
