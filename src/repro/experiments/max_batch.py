"""Figure 6: maximum batch size trainable with at most one extra forward pass.

The paper asks: how large can the batch get before (a) the schedule no longer
fits in 16 GB even with rematerialization, or (b) the recomputation overhead
exceeds one additional forward pass (Eq. 10: total cost <= 2 * forward +
backward)?  The original formulation makes the batch size a decision variable,
which turns the MILP quadratic; following the substitution documented in
DESIGN.md we instead run an outer search over integer batch sizes, solving the
(linear) feasibility problem at each candidate -- the optimum over integers is
the same, and like the paper we report a lower bound whenever the solver hits
its time limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..autodiff import make_training_graph
from ..core.dfgraph import DFGraph
from ..cost_model import CostModel, FlopCostModel
from ..service import SolveService, SolverOptions, get_default_service, parallel_map
from ..utils.formatting import format_table
from ..utils.lru import SingleFlightLRU
from .budget_sweep import pass_statistics

__all__ = ["MaxBatchResult", "TrainingGraphMemo", "max_batch_size",
           "max_batch_experiment", "cost_cap"]

#: Strategies reported in Figure 6.
DEFAULT_MAX_BATCH_STRATEGIES = ("checkpoint_all", "ap_sqrt_n", "linearized_greedy",
                                "checkmate_approx")


@dataclass
class MaxBatchResult:
    """Largest feasible batch size found for one (model, strategy) pair."""

    model: str
    strategy: str
    max_batch_size: int
    budget: int
    normalized: float = 1.0  # relative to checkpoint-all, filled in by the experiment

    def as_row(self) -> tuple:
        return (self.model, self.strategy, self.max_batch_size, f"{self.normalized:.2f}x")


def cost_cap(training_graph: DFGraph) -> float:
    """Eq. (10): at most one extra forward pass of overhead."""
    return 2.0 * training_graph.forward_cost() + training_graph.backward_cost()


class TrainingGraphMemo:
    """Thread-safe, single-flight per-batch-size memo of built training graphs.

    The Figure 6 search probes the same batch sizes for every strategy of one
    model (the exponential bracket always visits 1, 2, 4, ...), and every
    probe otherwise rebuilds forward graph + autodiff + cost model from
    scratch.  Sharing one memo across the strategy searches means each batch
    size is built once, even by concurrent searches -- and, because the
    returned object is the *same* ``DFGraph`` instance, its content hash and
    compiled formulation memos are shared across strategies too instead of
    being recomputed per probe.
    """

    def __init__(self, forward_builder: Callable[[int], DFGraph],
                 cost_model: CostModel) -> None:
        self._builder = forward_builder
        self._cost_model = cost_model
        # 64 batch sizes: the 1, 2, 4, ... bracket up to 4096 plus a binary
        # search per strategy stays well under it.
        self._graphs: SingleFlightLRU[int, DFGraph] = SingleFlightLRU(64)

    def __call__(self, batch_size: int) -> DFGraph:
        def build() -> DFGraph:
            return self._cost_model.apply(make_training_graph(self._builder(batch_size)))

        return self._graphs.get_or_compute(batch_size, build)


def _feasible_at_batch(
    training_builder: Callable[[int], DFGraph],
    batch_size: int,
    strategy_key: str,
    budget: int,
    ilp_time_limit_s: float,
    service: SolveService,
) -> bool:
    """Check whether ``strategy`` trains at ``batch_size`` within budget and cost cap."""
    graph = training_builder(batch_size)
    if graph.constant_overhead >= budget:
        return False
    result = service.solve(graph, strategy_key, budget,
                           SolverOptions(time_limit_s=ilp_time_limit_s))
    if not result.feasible or result.peak_memory > budget:
        return False
    return result.compute_cost <= cost_cap(graph) * (1.0 + 1e-9)


def max_batch_size(
    forward_builder: Callable[[int], DFGraph],
    strategy_key: str,
    *,
    budget: int,
    cost_model: Optional[CostModel] = None,
    max_batch: int = 4096,
    ilp_time_limit_s: float = 60.0,
    service: Optional[SolveService] = None,
    graph_memo: Optional[TrainingGraphMemo] = None,
) -> int:
    """Binary-search the largest batch size a strategy can train under Eq. (10).

    ``forward_builder(batch)`` must return the forward graph at that batch
    size.  Returns 0 when even batch size 1 is infeasible.  Solves go through
    the plan cache, so probing a batch size the search (or a previous search)
    has already visited is free; ``graph_memo`` (shared across the strategy
    searches by :func:`max_batch_experiment`) additionally deduplicates the
    graph builds themselves.
    """
    cost_model = cost_model or FlopCostModel()
    service = service or get_default_service()
    training_builder = graph_memo or TrainingGraphMemo(forward_builder, cost_model)

    def feasible(b: int) -> bool:
        return _feasible_at_batch(training_builder, b, strategy_key, budget,
                                  ilp_time_limit_s, service)

    if not feasible(1):
        return 0
    # Exponential growth phase to bracket the answer, then binary search.
    lo, hi = 1, 2
    while hi <= max_batch and feasible(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, max_batch + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_batch_experiment(
    models: Dict[str, Callable[[int], DFGraph]],
    *,
    budget: int,
    strategies: Sequence[str] = DEFAULT_MAX_BATCH_STRATEGIES,
    cost_model: Optional[CostModel] = None,
    max_batch: int = 4096,
    ilp_time_limit_s: float = 60.0,
    service: Optional[SolveService] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    stats_out: Optional[Dict[str, object]] = None,
) -> List[MaxBatchResult]:
    """Run the Figure-6 study over a set of models.

    ``models`` maps display names to ``builder(batch_size) -> forward graph``
    callables.  Results include the batch size normalized against the
    checkpoint-all strategy for the same model (the bar heights of Figure 6).

    Each (model, strategy) search is independent; they fan out over a thread
    pool (the binary search itself stays sequential) and results keep the
    deterministic (model, strategy) iteration order.

    Reproducibility caveat: with ``checkmate_ilp`` among the strategies, a
    wall-clock-limited MILP probe can return a different incumbent under
    parallel CPU contention, and the binary search amplifies one flipped
    probe into a different max batch -- pass ``parallel=False`` (as the
    figure benchmarks do for their ILP sweeps) when exact run-to-run
    reproducibility matters.  The default strategies use only heuristics and
    the LP rounding, which are deterministic either way.
    """
    service = service or get_default_service()
    before = service.statistics() if stats_out is not None else None
    t_start = time.perf_counter()
    # One training-graph memo per model, shared by all of its strategy
    # searches: every probed batch size is built (and content-hashed) once.
    memos = {model_name: TrainingGraphMemo(builder, cost_model or FlopCostModel())
             for model_name, builder in models.items()}
    pairs = [(model_name, builder, strategy)
             for model_name, builder in models.items() for strategy in strategies]

    def search(pair) -> MaxBatchResult:
        model_name, builder, strategy = pair
        best = max_batch_size(builder, strategy, budget=budget, cost_model=cost_model,
                              max_batch=max_batch, ilp_time_limit_s=ilp_time_limit_s,
                              service=service, graph_memo=memos[model_name])
        return MaxBatchResult(model=model_name, strategy=strategy,
                              max_batch_size=best, budget=budget)

    flat = parallel_map(search, pairs, max_workers=max_workers, parallel=parallel,
                        thread_name_prefix="repro-maxbatch")

    results: List[MaxBatchResult] = []
    for model_name in models:
        per_model = [r for r in flat if r.model == model_name]
        baseline = next((r.max_batch_size for r in per_model
                         if r.strategy == "checkpoint_all"), None)
        for r in per_model:
            if baseline:
                r.normalized = r.max_batch_size / baseline
        results.extend(per_model)
    if stats_out is not None:
        stats_out.update(pass_statistics(service, before, t_start,
                                         models=len(models),
                                         searches=len(pairs)))
    return results


def format_max_batch(results: Sequence[MaxBatchResult]) -> str:
    """Text rendering of Figure 6 (max batch size and normalized bars)."""
    headers = ["model", "strategy", "max batch", "vs checkpoint-all"]
    return format_table(headers, [r.as_row() for r in results])
