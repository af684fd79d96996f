"""The unified solve service: cached single solves and parallel sweeps.

Every figure and table in the paper's evaluation reduces to "solve the same
graph under many (strategy, budget) configurations".  :class:`SolveService` is
the one entry point for that workload:

* :meth:`SolveService.solve` -- solve one (graph, strategy, budget, options)
  cell through the unified registry, consulting the content-addressed plan
  cache first.  A warm cache answers without invoking any solver at all
  (``statistics()["solver_calls"]`` counts real invocations, which is how
  the tests assert cache effectiveness).
* :meth:`SolveService.sweep` -- fan a list of independent cells out over a
  thread pool (``concurrent.futures``) and return results in *cell order*.
  The underlying HiGHS solves release the GIL, so independent MILP/LP cells
  genuinely overlap.  For solves that run to completion the results are
  identical to a sequential run; the one caveat is wall-clock *time-limited*
  MILP cells, whose incumbent at the limit can differ under CPU contention --
  pass ``parallel=False`` (or generous limits) when exact sequential
  reproducibility of time-limited cells matters.

Failure semantics: a strategy raising
:class:`~repro.core.schedule.StrategyNotApplicableError` (e.g. Griewank on a
non-linear graph) yields an infeasible ``not-applicable`` result instead of
aborting the sweep; ``solve(strict=True)`` re-raises instead.  Any other
``ValueError`` -- misconfigured options, an invalid schedule -- always
propagates, so misuse is never silently reported as infeasibility.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduledResult, StrategyNotApplicableError
from ..obs.metrics import Counter
from ..obs.trace import get_tracer
from ..solvers.compiled import get_formulation_cache
from ..solvers.warm import WarmSeed, warm_seed_from_result
from .cache import PlanCache, PlanCacheKey
from .hashing import graph_content_hash
from .options import SolverOptions
from .registry import SolverRegistry, SolverSpec, default_registry

__all__ = ["SweepCell", "SolveService", "SolveCancelledError",
           "get_default_service", "set_default_service", "parallel_map"]

logger = logging.getLogger(__name__)


class SolveCancelledError(RuntimeError):
    """A solve was cancelled (via ``should_cancel``) before the solver ran.

    Cooperative cancellation: the hook is consulted at well-defined points --
    on entry and again right before the solver is invoked -- so a cancel
    request that arrives while a solver is already inside HiGHS lets the
    solve finish (and populate the cache) rather than tearing it down.  The
    solve-as-a-service job queue maps this exception onto the ``cancelled``
    job state.
    """


def parallel_map(fn: Callable, items: Sequence, *, max_workers: Optional[int] = None,
                 parallel: bool = True,
                 thread_name_prefix: str = "repro-pool") -> List:
    """Map ``fn`` over ``items`` on a thread pool, preserving item order.

    The shared fan-out primitive behind :meth:`SolveService.sweep` and the
    experiment-level parallelism (e.g. ``max_batch_experiment``).  Falls back
    to a plain sequential loop for a single worker or ``parallel=False``.
    """
    items = list(items)
    if not items:
        return []
    workers = max_workers or min(len(items), os.cpu_count() or 1)
    if not parallel or workers <= 1 or len(items) == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix=thread_name_prefix) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work: a strategy at a budget."""

    strategy: str
    budget: Optional[float] = None
    options: Optional[SolverOptions] = None


#: Infeasibility verdicts that are deterministic and therefore safe to cache:
#: proven infeasibility, heuristics whose search exhausted deterministically,
#: and the (seeded) rounding failing the budget.  Notably absent: the MILP's
#: bare "time_limit" (no incumbent at the wall-clock limit), the LP's
#: "lp-status-*" limits, and the race's "race-no-feasible" /
#: "race-deadline-exhausted" verdicts, all of which are load-dependent.
_PROVEN_INFEASIBLE_MARKERS = ("infeasible", "over-budget", "no-feasible-b",
                              "rounding-exceeded-budget")


def _cacheable(result: ScheduledResult) -> bool:
    """Whether a result may be replayed from the cache.

    Feasible schedules are cacheable (a time-limit incumbent is still a
    correct schedule) -- except best-so-far results a cooperative cancel cut
    short (status ``"ok-cancelled"``), which are load-dependent: replaying one
    would pin a worse-than-reproducible schedule under a key whose full
    search finds better.  An *infeasible* verdict is only cacheable when the
    solver proved it; "no incumbent at the wall-clock limit" is load-dependent,
    and caching it -- especially on disk -- would replay a transient timeout
    as permanent infeasibility.
    """
    if result.feasible:
        return "cancelled" not in result.solver_status
    status = result.solver_status
    return any(marker in status for marker in _PROVEN_INFEASIBLE_MARKERS)


_UNSET_CACHE = object()

#: The counters :meth:`SolveService.statistics` reports, by section (``None``
#: is the top level).  Each name is an ``event`` label of the service counter.
_COUNTED = {
    None: ("solver_calls", "cache_hits", "cache_misses", "executions",
           "warm_seeds", "incumbent_prunes", "bound_skips",
           "infeasible_shortcuts"),
    "analysis": ("lint_runs", "lint_errors", "lint_warnings"),
    "race": ("races", "wins", "no_feasible", "deadline_hits",
             "entrants_finished", "entrants_cancelled"),
}
_WARM_KIND_EVENTS = {"incumbent_prune": "incumbent_prunes",
                     "bound_skip": "bound_skips"}
#: The ``extra["certificate"]`` kinds an exact solve is answered by.
CERTIFICATE_KINDS = ("liveness", "lp-gap")
#: Options of a solve given none: built once, since a cached sweep cell costs
#: only microseconds and options are frozen.
_DEFAULT_OPTIONS = SolverOptions()


class SolveService:
    """Registry + cache + executor behind one ``solve``/``sweep`` API.

    Pass ``cache=None`` to disable caching for this service; by default each
    service owns a fresh in-memory :class:`PlanCache`.
    """

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        cache: object = _UNSET_CACHE,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.cache: Optional[PlanCache] = (
            PlanCache() if cache is _UNSET_CACHE else cache  # type: ignore[assignment]
        )
        # Per service, not in the process-wide registry: two services in one
        # process keep separate counts.
        self._events = Counter("repro_service_events_total",
                               "Solve service events by kind", ("event",))
        self.certificates = Counter(
            "repro_service_certificates_total",
            "Fresh exact solves answered by a certificate, by kind", ("kind",))
        for kind in CERTIFICATE_KINDS:  # scrape zeros before the first one
            self.certificates.inc(0, kind=kind)

    # ------------------------------------------------------------------ #
    # Single solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        graph: DFGraph,
        strategy: str,
        budget: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        *,
        strict: bool = False,
        should_cancel: Optional[Callable[[], bool]] = None,
        warm_start: Optional[WarmSeed] = None,
    ) -> ScheduledResult:
        """Solve one cell, answering from the plan cache when possible.

        Treat the returned result as immutable: cache hits hand the same
        object to every caller, so in-place mutation (of ``matrices``,
        ``extra``, ``plan``) would corrupt later lookups of the same cell.

        ``should_cancel`` is the cooperative cancellation hook: a zero-arg
        callable polled on entry and again after a cache miss, immediately
        before the solver is invoked.  When it returns true the solve raises
        :class:`SolveCancelledError` instead of spending solver time.  A
        cache *hit* still returns normally -- answering from the cache is
        free, so there is nothing worth cancelling.

        ``warm_start`` hands a warm-capable strategy (see
        ``SolverSpec.warm_start_capable``) a neighboring budget's incumbent to
        prune with; it is a pure hint -- it never enters the cache key, and by
        budget monotonicity it cannot change which objective is optimal, only
        how fast the solver gets there.  Seeds come only from the caller: a
        cache miss without one solves cold (:meth:`sweep` and :meth:`pareto`
        hand each cell the incumbent of the larger budget they solved before).
        """
        if should_cancel is not None and should_cancel():
            raise SolveCancelledError(f"solve of {strategy!r} cancelled before start")
        spec = self.registry.get(strategy)
        options = options if options is not None else _DEFAULT_OPTIONS

        tracer = get_tracer()
        key: Optional[PlanCacheKey] = None
        warm_ok = spec.warm_start_capable and budget is not None
        lookup_start = 0.0
        if self.cache is not None:
            # Cache hits bypass the span context manager entirely: a warm
            # cell is microseconds of real work, so the hit path records one
            # flat pre-measured span (several times cheaper than a live
            # enter/exit) while misses open the usual "solve" span below,
            # before any solver work.
            lookup_start = time.perf_counter()
            key, cached = self._plan_lookup(graph, spec, budget, options)
            if cached is not None:
                if tracer.enabled:
                    end_s = time.perf_counter()
                    if not tracer.record_child_span(
                            "solve", lookup_start, end_s,
                            strategy=strategy, cache_hit=True):
                        # Root-level hit: give it its own single-span trace.
                        tracer.record_span(
                            "solve", tracer.new_trace_id(), lookup_start,
                            end_s, strategy=strategy, cache_hit=True)
                return cached

        with tracer.span("solve", strategy=strategy):
            if key is not None:
                tracer.record_child_span("cache-lookup", lookup_start,
                                         time.perf_counter())

            # Warn-only pre-solve lint gate, on the cache-miss path only: a
            # cache hit replays a schedule this service already vetted, and
            # keeping the hit path at microseconds is the whole point of the
            # cache.  Memoized by content hash, so a sweep lints each graph
            # once per budget, not once per cell.
            self._lint_gate(graph, budget, tracer)

            if should_cancel is not None and should_cancel():
                raise SolveCancelledError(
                    f"solve of {strategy!r} cancelled before solver start")
            result, applicable = self._invoke(
                spec, graph, budget, options, strict=strict,
                warm_start=warm_start if warm_ok else None,
                should_cancel=should_cancel,
            )
            self._events.inc(event="solver_calls")
            if key is not None:
                self._events.inc(event="cache_misses")
            self._count_fresh(result)
            # "not-applicable" placeholders (the strategy raised before solving) are
            # never cached: they cost nothing to reproduce, and caching them would
            # make a later strict=True call return a placeholder instead of raising.
            if key is not None and applicable:
                self._plan_store(key, result, memory_only=False)
            return result

    def _plan_lookup(self, graph: DFGraph, spec: SolverSpec,
                     budget: Optional[float], options: SolverOptions):
        """``(key, cached)``: a cell's plan-cache key and the cached result
        (``None`` on a miss; a hit is counted).

        The one derivation of a cell's cache identity, shared by
        :meth:`solve` and the process backend's parent-cache tier.
        """
        key = PlanCacheKey.build(graph_content_hash(graph), spec.key, budget,
                                 options.cache_token(spec.option_map))
        cached = self.cache.get(key, graph)
        if cached is not None:
            self._events.inc(event="cache_hits")
        return key, cached

    def _plan_store(self, key: PlanCacheKey, result: ScheduledResult, *,
                    memory_only: bool) -> None:
        """Cache a fresh result under :meth:`_plan_lookup`'s key, unless its
        verdict is load-dependent.  ``memory_only`` skips the disk tier, for
        a result the process that solved it has already written there."""
        if _cacheable(result):
            store = self.cache.remember if memory_only else self.cache.put
            store(key, result)

    def _count_fresh(self, result: ScheduledResult) -> None:
        """Count a fresh solve's warm-start, shortcut, certificate and race
        markers.

        Only fresh invocations count: a cache hit replays a stored result
        and must not re-count its markers.
        """
        extra = result.extra or {}
        count = self._events.inc
        if extra.get("certificate") in CERTIFICATE_KINDS:
            self.certificates.inc(kind=extra["certificate"])
        warm = extra.get("warm_start")
        if warm and warm.get("used"):
            count(event="warm_seeds")
            kind_event = _WARM_KIND_EVENTS.get(warm.get("kind"))
            if kind_event is not None:
                count(event=kind_event)
        if extra.get("infeasible_shortcut"):
            count(event="infeasible_shortcuts")
        race = extra.get("race")
        if isinstance(race, dict):
            lanes = race.get("entrants") or []
            count(event="races")
            count(event="wins" if race.get("feasible") else "no_feasible")
            if race.get("deadline_hit"):
                count(event="deadline_hits")
            count(sum(1 for lane in lanes if lane.get("wall_s") is not None),
                  event="entrants_finished")
            count(sum(1 for lane in lanes
                      if "cancelled" in str(lane.get("status", ""))
                      or lane.get("status") == "not-started"),
                  event="entrants_cancelled")

    def _lint_gate(self, graph: DFGraph, budget: Optional[float],
                   tracer) -> None:
        """Run the graph linter before a fresh solve; warn, never fail.

        Diagnostics are logged (errors and warnings at ``WARNING`` level) and
        counted in :meth:`statistics`; the solve proceeds regardless -- a
        questionable graph still deserves the solver's verdict, and the
        linter itself must never be the reason a solve dies.
        """
        from ..analysis.lint import lint_graph_cached

        try:
            with tracer.span("lint", graph=graph.name):
                report = lint_graph_cached(graph, budget=budget)
        except Exception:  # pragma: no cover - defensive: lint is advisory
            logger.exception("graph lint failed; continuing with the solve")
            return
        self._events.inc(event="lint_runs")
        self._events.inc(report.errors, event="lint_errors")
        self._events.inc(report.warnings, event="lint_warnings")
        if report.errors or report.warnings:
            worst = [d for d in report.diagnostics if d.severity != "info"]
            logger.warning("%s; first: [%s] %s", report.summary(),
                           worst[0].code, worst[0].message)

    def _invoke(self, spec: SolverSpec, graph: DFGraph, budget: Optional[float],
                options: SolverOptions, *, strict: bool,
                warm_start: Optional[WarmSeed] = None,
                should_cancel: Optional[Callable[[], bool]] = None):
        kwargs = options.kwargs_for(spec.option_map)
        if warm_start is not None and spec.warm_start_capable:
            kwargs["warm_start"] = warm_start
        # Cooperative solvers (SolverSpec.accepts_should_cancel) get the hook
        # itself, so a cancel arriving mid-solve reaps candidate loops and
        # race entrants instead of waiting for the solve to finish.
        if should_cancel is not None and spec.accepts_should_cancel:
            kwargs["should_cancel"] = should_cancel
        try:
            return spec.solve(graph, budget, **kwargs), True
        except StrategyNotApplicableError as exc:
            # Only structural inapplicability is converted; any other
            # ValueError (bad options, invalid schedule) propagates.
            if strict:
                raise
            from ..solvers.common import build_scheduled_result
            return build_scheduled_result(
                spec.key, graph, None,
                budget=int(budget) if budget is not None else None,
                feasible=False, solver_status=f"not-applicable: {exc}",
            ), False

    # ------------------------------------------------------------------ #
    # Solve-and-execute
    # ------------------------------------------------------------------ #
    def execute(
        self,
        numeric_or_graph,
        strategy: str,
        budget: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        *,
        seed: int = 0,
        should_cancel: Optional[Callable[[], bool]] = None,
    ):
        """Solve one cell, lower it, run it over NumPy tensors, cross-check.

        ``numeric_or_graph`` is either a ready
        :class:`~repro.execution.ops.NumericGraph` or a plain
        :class:`~repro.core.dfgraph.DFGraph` carrying builder metadata, in
        which case it is bound via
        :func:`~repro.execution.bind_numeric_graph` with ``seed``.  The solve
        itself goes through :meth:`solve` (plan cache included -- a warm
        cache means *execute* pays only for the actual tensor computation).

        Returns the :class:`~repro.execution.report.ExecutionReport`
        comparing measured peak live bytes, recompute counts and outputs
        against the simulator predictions and checkpoint-all execution.
        Infeasible solves return a report with ``executed=False``.
        """
        from ..execution import NumericGraph, bind_numeric_graph, build_execution_report

        tracer = get_tracer()
        with tracer.span("execute", strategy=strategy):
            if isinstance(numeric_or_graph, NumericGraph):
                numeric = numeric_or_graph
            else:
                with tracer.span("bind-numeric"):
                    numeric = bind_numeric_graph(numeric_or_graph, seed=seed)
            result = self.solve(numeric.graph, strategy, budget, options,
                                should_cancel=should_cancel)
            with tracer.span("tensor-execute"):
                report = build_execution_report(numeric, result)
            self._events.inc(event="executions")
            return report

    # ------------------------------------------------------------------ #
    # Parallel fan-out
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        graph: DFGraph,
        cells: Iterable[Union[SweepCell, Tuple[str, Optional[float]]]],
        *,
        options: Optional[SolverOptions] = None,
        max_workers: Optional[int] = None,
        parallel: bool = True,
        should_cancel: Optional[Callable[[], bool]] = None,
        warm_start: bool = True,
    ) -> List[ScheduledResult]:
        """Solve many independent cells, returning results in cell order.

        ``cells`` may be :class:`SweepCell` objects or bare ``(strategy,
        budget)`` tuples; a per-cell ``options`` overrides the sweep-wide one.
        With ``parallel=False`` (or a single worker) the cells run strictly
        sequentially.  For solves that complete (proven optimal/infeasible,
        heuristics, LPs) parallel results are identical to sequential ones;
        MILP cells that stop on a wall-clock time limit may return a
        different incumbent under parallel CPU contention.

        Cell scheduling is deterministic: unique cells of each *warm-capable*
        strategy (``SolverSpec.warm_start_capable``) are grouped per
        (strategy, options) family and solved as one sequential
        **descending-budget chain**, each cell seeded with the previous
        (larger-budget) cell's tightened incumbent (a chain's first cell gets
        no seed); all other cells are
        independent singletons.  Chains and singletons fan out over the thread
        pool in first-appearance order, so plan-cache fills and warm seeding
        are reproducible run-to-run -- and because a warm seed can only change
        *how fast* a cell solves, never which objective is optimal, parallel
        and sequential sweeps still agree cell-for-cell.  ``warm_start=False``
        restores the fully independent cold scheduling (every cell its own
        singleton, no seeding).

        ``should_cancel`` is forwarded to every cell solve; once it returns
        true the next cell to start raises :class:`SolveCancelledError`,
        which aborts the sweep (cells already inside a solver run to
        completion and stay cached).
        """
        normalized: List[SweepCell] = []
        for cell in cells:
            if isinstance(cell, SweepCell):
                normalized.append(cell)
            else:
                strategy, budget = cell
                normalized.append(SweepCell(strategy=strategy, budget=budget))
        # Fail fast on unknown strategies before any thread spins up.
        for cell in normalized:
            self.registry.get(cell.strategy)
        if not normalized:
            return []

        tracer = get_tracer()
        with tracer.span("sweep", cells=len(normalized)):
            return self._sweep_cells(
                graph, normalized, options=options, max_workers=max_workers,
                parallel=parallel, should_cancel=should_cancel,
                warm_start=warm_start,
            )

    def _sweep_cells(
        self,
        graph: DFGraph,
        normalized: List[SweepCell],
        *,
        options: Optional[SolverOptions],
        max_workers: Optional[int],
        parallel: bool,
        should_cancel: Optional[Callable[[], bool]],
        warm_start: bool,
    ) -> List[ScheduledResult]:

        # Compile the graph's MILP formulation once, up front, when any cell
        # will need it: every budget of the sweep then re-budgets the shared
        # CompiledFormulation in O(1), and parallel workers never pile up on
        # the formulation cache's cold-key single-flight lock.  On a sweep
        # fully served by a warm plan cache this compile (milliseconds, once
        # per process per graph -- the formulation cache is process-wide) is
        # the only work performed; the alternative, probing the plan cache for
        # every cell first, would cost more than it saves on any cold cell.
        if any(self.registry.get(cell.strategy).uses_formulation
               for cell in normalized):
            get_formulation_cache().get(graph)

        # Deduplicate identical cells: concurrent duplicates would all miss
        # the cold cache and each run the full solve.  SweepCell is frozen
        # (and options hashable), so effective cells key a dict directly.
        effective = [cell if cell.options is not None
                     else SweepCell(cell.strategy, cell.budget, options)
                     for cell in normalized]
        unique: List[SweepCell] = []
        index_of: dict = {}
        for cell in effective:
            if cell not in index_of:
                index_of[cell] = len(unique)
                unique.append(cell)

        # Partition the unique cells into work units: descending-budget chains
        # for warm-capable strategies (grouped per (strategy, options) family,
        # in first-appearance order), singletons for everything else.
        chains: List[List[int]] = []
        if warm_start:
            family_of: dict = {}
            for idx, cell in enumerate(unique):
                spec = self.registry.get(cell.strategy)
                if spec.warm_start_capable and cell.budget is not None:
                    fam = (cell.strategy, cell.options)
                    if fam not in family_of:
                        family_of[fam] = []
                        chains.append(family_of[fam])
                    family_of[fam].append(idx)
                else:
                    chains.append([idx])
            for unit in chains:
                unit.sort(key=lambda i: -float(unique[i].budget)
                          if unique[i].budget is not None else 0.0)
        else:
            chains = [[idx] for idx in range(len(unique))]

        # Pool threads have no trace context of their own; hand them the
        # sweep's so every cell's solve span lands in the caller's trace.
        tracer = get_tracer()
        trace_ctx = tracer.current_context()

        def solve_chain(unit: List[int]) -> List[Tuple[int, ScheduledResult]]:
            seed: Optional[WarmSeed] = None
            out: List[Tuple[int, ScheduledResult]] = []
            for idx in unit:
                cell = unique[idx]
                result = self.solve(graph, cell.strategy, cell.budget,
                                    cell.options, should_cancel=should_cancel,
                                    warm_start=seed)
                out.append((idx, result))
                if len(unit) > 1 and result.feasible and result.matrices is not None:
                    seed = warm_seed_from_result(graph, result) or seed
            return out

        def solve_unit(unit: List[int]) -> List[Tuple[int, ScheduledResult]]:
            # The sequential path runs on the caller's thread, which already
            # carries the sweep's context -- re-attaching it would only add
            # per-chain overhead.
            if trace_ctx is None or tracer.current_trace_id() == trace_ctx[0]:
                return solve_chain(unit)
            with tracer.context(*trace_ctx):
                return solve_chain(unit)

        solved: List[Optional[ScheduledResult]] = [None] * len(unique)
        for batch in parallel_map(solve_unit, chains, max_workers=max_workers,
                                  parallel=parallel,
                                  thread_name_prefix="repro-sweep"):
            for idx, result in batch:
                solved[idx] = result
        return [solved[index_of[cell]] for cell in effective]

    # ------------------------------------------------------------------ #
    # Pareto frontier
    # ------------------------------------------------------------------ #
    def pareto(
        self,
        graph: DFGraph,
        strategy: str = "checkmate_ilp",
        *,
        low: Optional[float] = None,
        high: Optional[float] = None,
        resolution: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ):
        """Trace the memory-vs-recompute frontier by warm-seeded bisection.

        Recursively bisects the budget axis between ``low`` (default: the
        arithmetic minimum-feasible-budget floor) and ``high`` (default: the
        checkpoint-all peak), stopping early on segments whose endpoint costs
        already agree (a flat step of the frontier staircase) and on segments
        narrower than ``resolution``.  Every probe is an ordinary
        :meth:`solve` -- cached, and warm-seeded with the incumbent of the
        nearest larger budget the trace has already solved -- so the frontier
        costs far fewer solver calls than the equivalent dense grid.  Returns a
        :class:`~repro.service.pareto.ParetoFront`.
        """
        from .pareto import trace_pareto_frontier

        with get_tracer().span("pareto", strategy=strategy):
            return trace_pareto_frontier(
                self, graph, strategy, low=low, high=high, resolution=resolution,
                options=options, should_cancel=should_cancel,
            )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def grid(self, strategies: Sequence[str], budgets: Sequence[Optional[float]],
             options: Optional[SolverOptions] = None) -> List[SweepCell]:
        """The cross product of strategies and budgets, in deterministic order."""
        return [SweepCell(strategy=s, budget=b, options=options)
                for s in strategies for b in budgets]

    def statistics(self) -> dict:
        """One merged snapshot of service activity and cache effectiveness.

        This is the payload behind the serve daemon's ``/v1/metrics``.  The
        counters (:data:`_COUNTED`) come from the service's event counter,
        which also holds what process workers counted for this service
        (:meth:`add_counts`):

        * ``cache_hits``/``cache_misses`` only count solves that consulted
          the cache; with caching disabled neither moves.  ``executions``
          counts :meth:`execute` runs (each also shows up as a solve or a
          cache hit).
        * The warm-start and race counters only move on fresh solver
          invocations: ``warm_seeds`` (handed a usable seed),
          ``incumbent_prunes`` (the seed was proven optimal and reused),
          ``bound_skips`` (the seed was certified by a bound without a full
          integer solve), ``infeasible_shortcuts`` (answered by the
          budget-floor / learned-infeasibility pre-checks);
          ``race.entrants_finished`` counts lanes that returned a verdict,
          ``race.entrants_cancelled`` the stragglers reaped before starting.
        * ``certificates`` counts fresh solves answered by a certificate
          instead of branch-and-cut, by kind: ``liveness`` (the no-recompute
          schedule fit) and ``lp-gap`` (a rounding met the LP bound).  The
          same counts scrape as ``repro_service_certificates_total{kind}``.
        * ``analysis.lint_runs`` counts pre-solve lint gate consultations
          (memoized reports included), so the error/warning totals track
          what solves were exposed to.

        The ``cache`` sub-dict comes straight from :meth:`PlanCache.stats`
        (``None`` when caching is disabled).
        """
        counts = {labels[0]: int(value)
                  for _, labels, value in self._events.samples()}
        snapshot: dict = {name: counts.get(name, 0) for name in _COUNTED[None]}
        for section in ("analysis", "race"):
            snapshot[section] = {name: counts.get(name, 0)
                                 for name in _COUNTED[section]}
        snapshot["certificates"] = {kind: int(self.certificates.value(kind=kind))
                                    for kind in CERTIFICATE_KINDS}
        snapshot["registered_solvers"] = len(self.registry)
        snapshot["cache"] = self.cache.stats() if self.cache is not None else None
        # The process-wide caches (shared by every service in the process),
        # reported here so /v1/metrics shows them next to the plan cache.
        from ..analysis.lint import lint_cache
        from ..solvers.rounding_portfolio import get_lp_relaxation_cache

        snapshot["formulation_cache"] = get_formulation_cache().stats()
        snapshot["lp_relaxation_cache"] = get_lp_relaxation_cache().stats()
        snapshot["lint_cache"] = lint_cache.stats()
        return snapshot

    def counts(self) -> dict:
        """Every nonzero event and certificate count so far, keyed by
        ``(label name, label value)``.  The difference of two readings is
        what the service counted in between, which :meth:`add_counts` takes."""
        return {(counter.labelnames[0], labels[0]): value
                for counter in (self._events, self.certificates)
                for _, labels, value in counter.samples() if value}

    def add_counts(self, counts: dict) -> None:
        """Add counts another service took (a process worker's task), so
        this service's counters cover solves wherever they ran."""
        for (label, value), amount in counts.items():
            counter = self.certificates if label == "kind" else self._events
            counter.inc(amount, **{label: value})


_default_service: Optional[SolveService] = None
_default_service_lock = threading.Lock()


def get_default_service() -> SolveService:
    """The process-wide shared service (lazy; cache shared across callers)."""
    global _default_service
    with _default_service_lock:
        if _default_service is None:
            _default_service = SolveService()
        return _default_service


def set_default_service(service: Optional[SolveService]) -> Optional[SolveService]:
    """Replace the process-wide service (pass ``None`` to reset); returns the old one."""
    global _default_service
    with _default_service_lock:
        previous, _default_service = _default_service, service
        return previous
