"""Figure-6-style study: how much larger can the batch get with rematerialization?

For each architecture, find the largest batch size whose training iteration
(a) fits the memory budget and (b) costs at most one extra forward pass
(Eq. 10 of the paper), for the framework-default policy, the strongest
generalized heuristic, and Checkmate's LP-rounding approximation.

Run:  python examples/max_batch_size.py [--budget-gib 2.0]
"""

import argparse

from repro.cost_model import FlopCostModel
from repro.experiments.max_batch import format_max_batch, max_batch_experiment
from repro.models import mobilenet_v1, unet, vgg19
from repro.service import SolveService

STRATEGIES = ("checkpoint_all", "ap_sqrt_n", "linearized_greedy", "checkmate_approx")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-gib", type=float, default=1.0,
                        help="device memory budget in GiB (paper: 16 GiB V100)")
    parser.add_argument("--resolution", type=int, default=64,
                        help="input resolution for the classification networks")
    parser.add_argument("--max-batch", type=int, default=1024)
    args = parser.parse_args()

    budget = int(args.budget_gib * 2**30)
    res = args.resolution
    models = {
        "VGG19": lambda b: vgg19(batch_size=b, resolution=res),
        "MobileNet": lambda b: mobilenet_v1(batch_size=b, resolution=res),
        "U-Net": lambda b: unet(batch_size=b, resolution=(res * 3 // 2, res * 2),
                                base_filters=16, depth=3),
    }

    # Each (model, strategy) search runs in parallel through the solve service;
    # every feasibility probe of the binary search lands in the plan cache.
    service = SolveService()
    results = max_batch_experiment(models, budget=budget, strategies=STRATEGIES,
                                   cost_model=FlopCostModel(), max_batch=args.max_batch,
                                   service=service)
    print(f"maximum batch size within {args.budget_gib:.1f} GiB "
          f"and at most one extra forward pass\n")
    print(format_max_batch(results))
    stats = service.statistics()
    print(f"({stats['solver_calls']} solver calls, "
          f"{stats['cache_hits']} cache hits)\n")

    for model in models:
        rows = {r.strategy: r for r in results if r.model == model}
        gain = rows["checkmate_approx"].normalized
        print(f"{model}: Checkmate enables {gain:.1f}x the framework-default batch size")


if __name__ == "__main__":
    main()
