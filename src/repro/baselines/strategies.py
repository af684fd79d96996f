"""Unified strategy registry: Table 1 of the paper as executable objects.

Each strategy is declared once, as a
:class:`~repro.service.registry.SolverSpec` carrying the qualitative capability
flags from Table 1 (general graphs / cost aware / memory aware), a ``solve``
callable with the uniform signature ``solve(graph, budget=None, **kwargs) ->
ScheduledResult``, and the option names and capabilities the solve service
reads.  :func:`~repro.service.registry.default_registry` registers them as
they are; the evaluation harness iterates over them to produce the Figure 5
trade-off curves, the Figure 6 batch-size study and the Table 2 approximation
ratios.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from ..core.dfgraph import DFGraph
from ..core.schedule import (ScheduledResult, checkpoint_all_schedule,
                             no_recompute_schedule)
from ..core.simulator import schedule_peak_memory
from ..service.registry import FIXED_HALF_OPTIONS, SolverSpec
from ..solvers.common import build_scheduled_result
from ..solvers.ilp import solve_ilp_rematerialization
from ..solvers.rounding_portfolio import solve_rounding_portfolio
from ..utils.timer import Timer
from .chen import ap_candidates, solve_chen_greedy, solve_chen_sqrt_n
from .griewank import solve_griewank_logn
from .segmenting import forward_candidates

__all__ = ["STRATEGIES", "solve_checkpoint_all"]

#: Tri-state capability value used in Table 1 ("~" means partially).
PARTIAL = "~"


def solve_checkpoint_all(graph: DFGraph, budget: Optional[float] = None,
                         **_: object) -> ScheduledResult:
    """The framework default: store every activation, compute each node once.

    Frameworks such as TensorFlow free each activation once its gradient has
    been computed, so for training graphs the policy is the no-recompute
    schedule: every value is kept from its computation until its last
    consumer, and nothing is recomputed.  For graphs without training
    metadata the simpler retain-everything schedule is used.
    """
    with Timer() as timer:
        if "grad_index" in graph.meta:
            matrices = no_recompute_schedule(graph)
        else:
            matrices = checkpoint_all_schedule(graph)
        peak = schedule_peak_memory(graph, matrices)
    feasible = budget is None or peak <= budget
    return build_scheduled_result(
        "checkpoint-all", graph, matrices, budget=int(budget) if budget is not None else None,
        feasible=feasible, solve_time_s=timer.elapsed,
        solver_status="ok" if feasible else "over-budget",
        peak_memory=peak,
    )


def _on_candidates(solve: Callable[..., ScheduledResult],
                   candidates: Callable[[DFGraph], List[int]],
                   strategy_name: str) -> Callable[..., ScheduledResult]:
    """A Chen heuristic run over ``candidates(graph)`` + optimal R solve."""
    def run(graph: DFGraph, budget: Optional[float] = None, **kw) -> ScheduledResult:
        return solve(graph, budget, candidates=candidates(graph),
                     strategy_name=strategy_name, **kw)
    return run


#: Table 1 of the paper.  Keys are stable identifiers used by the experiment
#: harness and the benchmarks.
STRATEGIES: Dict[str, SolverSpec] = {spec.key: spec for spec in (
    SolverSpec(
        key="checkpoint_all",
        description="No rematerialization; default in deep learning frameworks.",
        general_graphs=True, cost_aware=False, memory_aware=False,
        solve=solve_checkpoint_all, has_budget_knob=False, in_table1=True,
    ),
    SolverSpec(
        key="griewank_logn",
        description="Griewank & Walther (2000) REVOLVE procedure.",
        general_graphs=False, cost_aware=False, memory_aware=False,
        solve=solve_griewank_logn, linear_only=True, has_budget_knob=False,
        in_table1=True,
    ),
    SolverSpec(
        key="chen_sqrt_n",
        description="Chen et al. (2016) sqrt(n) checkpointing heuristic.",
        general_graphs=False, cost_aware=False, memory_aware=False,
        solve=solve_chen_sqrt_n, linear_only=True, has_budget_knob=False,
        in_table1=True,
    ),
    SolverSpec(
        key="chen_greedy",
        description="Chen et al. (2016) greedy heuristic with search over parameter b.",
        general_graphs=False, cost_aware=False, memory_aware=PARTIAL,
        solve=solve_chen_greedy, linear_only=True, in_table1=True,
    ),
    SolverSpec(
        key="ap_sqrt_n",
        description="Chen sqrt(n) on articulation points + optimal R solve.",
        general_graphs=PARTIAL, cost_aware=False, memory_aware=False,
        solve=_on_candidates(solve_chen_sqrt_n, ap_candidates, "ap-sqrt(n)"),
        has_budget_knob=False, in_table1=True,
    ),
    SolverSpec(
        key="ap_greedy",
        description="Chen greedy on articulation points + optimal R solve.",
        general_graphs=PARTIAL, cost_aware=False, memory_aware=PARTIAL,
        solve=_on_candidates(solve_chen_greedy, ap_candidates, "ap-greedy"),
        in_table1=True,
    ),
    SolverSpec(
        key="linearized_sqrt_n",
        description="Chen sqrt(n) on the topological sort + optimal R solve.",
        general_graphs=True, cost_aware=False, memory_aware=False,
        solve=_on_candidates(solve_chen_sqrt_n, forward_candidates,
                             "linearized-sqrt(n)"),
        has_budget_knob=False, in_table1=True,
    ),
    SolverSpec(
        key="linearized_greedy",
        description="Chen greedy on the topological sort + optimal R solve.",
        general_graphs=True, cost_aware=False, memory_aware=PARTIAL,
        solve=_on_candidates(solve_chen_greedy, forward_candidates,
                             "linearized-greedy"), in_table1=True,
    ),
    SolverSpec(
        key="checkmate_ilp",
        description="Checkmate optimal MILP (Section 4).",
        general_graphs=True, cost_aware=True, memory_aware=True,
        solve=solve_ilp_rematerialization, in_table1=True,
        option_map={"time_limit_s": "time_limit_s", "mip_gap": "mip_gap"},
        uses_formulation=True, warm_start_capable=True, accepts_should_cancel=True,
    ),
    SolverSpec(
        key="checkmate_approx",
        description="Checkmate two-phase LP rounding approximation (Section 5).",
        general_graphs=True, cost_aware=True, memory_aware=True,
        solve=functools.partial(solve_rounding_portfolio, scheme="fixed_half"),
        in_table1=True,
        # The MILP time limit (``time_limit_s``) deliberately does NOT reach
        # the LP: the experiments pass tight MILP limits that would otherwise
        # silently shrink the LP's generous 600 s default; use
        # ``lp_time_limit_s`` to bound the LP.
        option_map=FIXED_HALF_OPTIONS,
        uses_formulation=True, accepts_should_cancel=True,
    ),
)}
