"""Ablation: MILP vs LP-rounding solve time and quality as graphs grow.

Not a single paper figure, but the quantitative backbone of Section 5's
motivation ("solving ILPs is NP-hard in general ... for architectures with
hundreds of layers it is not feasible"): the approximation's solve time grows
polynomially while staying near-optimal.
"""

import pytest

from bench_helpers import run_once

from repro.autodiff import make_training_graph
from repro.cost_model import ProfileCostModel
from repro.models import linear_cnn
from repro.solvers import solve_ilp_rematerialization, solve_rounding_portfolio


def _graph(num_layers: int):
    fwd = linear_cnn(num_layers=num_layers, batch_size=4, resolution=32, channels=16)
    return ProfileCostModel().apply(make_training_graph(fwd))


def _budget(graph, fraction=0.7):
    return int(graph.constant_overhead + fraction * graph.total_activation_memory())


@pytest.mark.parametrize("num_layers", [8, 16])
def test_ilp_solve_scaling(benchmark, num_layers):
    graph = _graph(num_layers)
    result = run_once(benchmark, solve_ilp_rematerialization, graph, _budget(graph),
                      time_limit_s=120)
    print(f"\n[scaling/ILP] n={graph.size}: status={result.solver_status}, "
          f"solve={result.solve_time_s:.2f}s, overhead={result.overhead:.3f}x")
    assert result.feasible


@pytest.mark.parametrize("num_layers", [8, 16, 32])
def test_approximation_solve_scaling(benchmark, num_layers):
    graph = _graph(num_layers)
    result = run_once(benchmark, solve_rounding_portfolio, graph, _budget(graph),
                      scheme="fixed_half")
    print(f"\n[scaling/LP-rounding] n={graph.size}: solve={result.solve_time_s:.2f}s, "
          f"overhead={result.overhead:.3f}x")
    assert result.feasible
    assert result.overhead < 2.0
