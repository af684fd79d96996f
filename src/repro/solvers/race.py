"""Deadline-racing meta-solver: the best feasible schedule within an SLO.

Exact MILP solves are the quality ceiling but have unbounded tail latency;
the rounding portfolio answers in near-LP time but leaves objective on the
table.  ``race`` serves both masters: it fans the cheap portfolio schemes
*plus* the exact ILP out over a thread pool (the same ``ThreadPoolExecutor``
fan-out the sweep executor uses -- HiGHS releases the GIL, so entrants
genuinely overlap), imposes a caller-supplied ``deadline_s``, and returns the
best feasible schedule any entrant produced in time.

Deadline discipline is belt and braces:

* every entrant's HiGHS time limit (``time_limit_s`` / ``lp_time_limit_s``)
  is clamped to the time remaining when it starts, so solvers stop themselves
  at the deadline rather than running long;
* a cooperative cancel hook (the same ``should_cancel`` contract the solve
  service uses) is handed to every entrant that accepts one
  (``SolverSpec.accepts_should_cancel``), reaping portfolio candidate loops
  between roundings and the exact ILP's HiGHS run (see
  :mod:`repro.solvers.highs`);
* entrants still queued when the deadline fires are cancelled before they
  start, and the pool is joined before returning -- no leaked threads.

The returned result carries structured ``extra["race"]`` provenance --
per-entrant wall time, status and objective, the winner, and whether the
deadline fired -- which flows through ``result_to_wire`` into ``POST
/v1/solve`` responses, and into the ``race`` counters of
``SolveService.statistics()`` / ``/v1/metrics``.

Certificate first: when ``checkmate_ilp`` is an entrant and the
no-recompute schedule fits the budget, that entrant's answer is known before
any lane starts -- a proven-optimal ``sum(C)`` schedule no entrant can beat --
so the race returns it without starting the pool (the other lanes report
``skipped-certified``).

Caching note: a feasible race result is a valid schedule and caches like any
other, but the cache key includes ``deadline_s`` (it is part of the race's
option map), so results raced under different SLOs never alias.  Infeasible
race verdicts (``race-no-feasible``, ``race-deadline-exhausted``) are
load-dependent and deliberately *not* cacheable.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduledResult, StrategyNotApplicableError
from ..obs.trace import get_tracer
from .common import build_scheduled_result
from .ilp import liveness_certified_result
from .rounding_portfolio import PORTFOLIO_STRATEGY_KEYS

__all__ = ["RACE_STRATEGY_NAME", "DEFAULT_ENTRANTS", "check_entrants", "solve_race"]

RACE_STRATEGY_NAME = "race"

#: Cheap approximations first, the exact ILP last: under a tight deadline the
#: portfolio banks a feasible incumbent while the ILP chases optimality.
DEFAULT_ENTRANTS: Tuple[str, ...] = PORTFOLIO_STRATEGY_KEYS + ("checkmate_ilp",)

def check_entrants(registry, entrants: Optional[Sequence[str]],
                   strategy_name: str = RACE_STRATEGY_NAME) -> list:
    """The specs a race named ``strategy_name`` would run, in entrant order.

    ``entrants`` defaults to :data:`DEFAULT_ENTRANTS`.  Raises ``ValueError``
    for an empty list, a race among its own entrants or a key ``registry``
    does not know.
    """
    keys = DEFAULT_ENTRANTS if entrants is None else tuple(entrants)
    if not keys:
        raise ValueError("race requires at least one entrant")
    if strategy_name in keys or RACE_STRATEGY_NAME in keys:
        raise ValueError("race cannot race itself")
    unknown = [key for key in keys if key not in registry]
    if unknown:
        raise ValueError(f"unknown race entrants {unknown}")
    return [registry.get(key) for key in keys]


def solve_race(
    graph: DFGraph,
    budget: Optional[float] = None,
    *,
    deadline_s: float = 10.0,
    entrants: Optional[Sequence[str]] = None,
    seed: int = 0,
    allowance: Optional[float] = None,
    num_samples: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    lp_time_limit_s: Optional[float] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    registry=None,
    max_workers: Optional[int] = None,
    strategy_name: str = RACE_STRATEGY_NAME,
) -> ScheduledResult:
    """Race ``entrants`` against ``deadline_s``; return the best feasible result.

    ``entrants`` are registry strategy keys (default: the four portfolio
    schemes plus ``checkmate_ilp``); ``time_limit_s`` / ``lp_time_limit_s``
    cap an entrant's solver *below* the deadline when given.  The winner is
    the feasible entrant with the lowest compute cost (ties: lower peak, then
    entrant order), so the race objective is ``<=`` every individual
    entrant's.  ``deadline_s <= 0`` is honored literally: nothing starts and
    the result is infeasible with status ``"race-deadline-exhausted"``.

    ``should_cancel`` composes with the deadline: when the caller's hook
    fires, the race stops admitting entrants, reaps cooperative ones, and
    returns the best schedule banked so far (status ``"ok"``) or an
    infeasible ``"race-cancelled"`` verdict.
    """
    if budget is None:
        raise ValueError("race requires a memory budget")
    if registry is None:
        from ..service.registry import default_registry

        registry = default_registry()
    specs = check_entrants(registry, entrants, strategy_name)  # fail fast
    entrant_keys = tuple(spec.key for spec in specs)

    from ..service.options import SolverOptions

    tracer = get_tracer()
    trace_ctx = tracer.current_context()
    race_start = time.monotonic()
    wall_start = time.perf_counter()
    deadline = race_start + max(0.0, float(deadline_s))
    cancel_event = threading.Event()
    caller_cancelled = threading.Event()

    def reaped() -> bool:
        if cancel_event.is_set() or caller_cancelled.is_set():
            return True
        if should_cancel is not None and should_cancel():
            caller_cancelled.set()
            return True
        return False

    lanes: List[dict] = [
        {"strategy": key, "status": "not-started", "wall_s": None,
         "feasible": False, "objective": None, "peak_memory": None}
        for key in entrant_keys
    ]

    def run_entrant(index: int) -> Optional[ScheduledResult]:
        lane = lanes[index]
        spec = specs[index]
        remaining = deadline - time.monotonic()
        if remaining <= 0 or reaped():
            lane["status"] = "cancelled-before-start"
            return None
        limit = remaining if time_limit_s is None else min(remaining, time_limit_s)
        lp_limit = remaining if lp_time_limit_s is None \
            else min(remaining, lp_time_limit_s)
        options = SolverOptions(
            time_limit_s=limit, lp_time_limit_s=lp_limit, allowance=allowance,
            num_samples=num_samples, seed=seed)
        kwargs = options.kwargs_for(spec.option_map)
        if spec.accepts_should_cancel:
            kwargs["should_cancel"] = reaped
        lane["status"] = "running"
        start = time.perf_counter()
        try:
            result = spec.solve(graph, budget, **kwargs)
        except StrategyNotApplicableError as exc:
            lane["status"] = f"not-applicable: {exc}"
            lane["wall_s"] = time.perf_counter() - start
            return None
        except Exception as exc:  # noqa: BLE001 - one entrant must not kill the race
            lane["status"] = f"error: {type(exc).__name__}: {exc}"
            lane["wall_s"] = time.perf_counter() - start
            return None
        lane["wall_s"] = time.perf_counter() - start
        lane["status"] = result.solver_status
        lane["feasible"] = bool(result.feasible)
        if result.feasible:
            lane["objective"] = float(result.compute_cost)
            lane["peak_memory"] = int(result.peak_memory)
        return result

    def traced_entrant(index: int) -> Optional[ScheduledResult]:
        key = entrant_keys[index]
        if trace_ctx is None:
            with tracer.span("race-entrant", strategy=key):
                return run_entrant(index)
        with tracer.context(*trace_ctx):
            with tracer.span("race-entrant", strategy=key):
                return run_entrant(index)

    results: List[Optional[ScheduledResult]] = [None] * len(entrant_keys)
    deadline_hit = False
    certified = None
    if deadline_s > 0 and "checkmate_ilp" in entrant_keys:
        certified = liveness_certified_result(graph, budget)
    if certified is not None:
        index = entrant_keys.index("checkmate_ilp")
        results[index] = certified
        for lane in lanes:
            lane["status"] = "skipped-certified"
        lanes[index].update(status=certified.solver_status,
                            wall_s=certified.solve_time_s, feasible=True,
                            objective=float(certified.compute_cost),
                            peak_memory=int(certified.peak_memory))
    elif deadline_s > 0:
        workers = min(len(entrant_keys),
                      max_workers or max(2, os.cpu_count() or 1))
        with tracer.span("race", deadline_s=float(deadline_s),
                         entrants=len(entrant_keys)):
            # Pool threads have no trace context; hand them the race span's
            # so every entrant's spans land under this race in one tree.
            trace_ctx = tracer.current_context()
            executor = ThreadPoolExecutor(max_workers=workers,
                                          thread_name_prefix="repro-race")
            try:
                futures = {executor.submit(traced_entrant, i): i
                           for i in range(len(entrant_keys))}
                pending = set(futures)
                while pending:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or reaped():
                        break
                    done, pending = wait(pending, timeout=remaining,
                                         return_when=FIRST_COMPLETED)
                deadline_hit = bool(pending) and not caller_cancelled.is_set()
                cancel_event.set()
                for future in pending:
                    future.cancel()
            finally:
                # Join the pool: queued entrants were cancelled above, and
                # in-flight ones stop promptly -- their HiGHS limits are
                # clamped to the deadline, and their candidate loops and
                # HiGHS waits poll the cancel hook -- so this wait is short.
                executor.shutdown(wait=True, cancel_futures=True)
            for future, index in futures.items():
                if future.cancelled():
                    continue
                if future.done() and future.exception() is None:
                    results[index] = future.result()
    else:
        deadline_hit = True

    winner_index: Optional[int] = None
    for index, result in enumerate(results):
        if result is None or not result.feasible or result.matrices is None:
            continue
        if winner_index is None:
            winner_index = index
            continue
        incumbent = results[winner_index]
        if (result.compute_cost, result.peak_memory) < (
                incumbent.compute_cost, incumbent.peak_memory):
            winner_index = index
    wall_s = time.perf_counter() - wall_start

    provenance = {
        "deadline_s": float(deadline_s),
        "wall_s": wall_s,
        "deadline_hit": deadline_hit,
        "cancelled": caller_cancelled.is_set(),
        "winner": entrant_keys[winner_index] if winner_index is not None else None,
        "feasible": winner_index is not None,
        "entrants": lanes,
    }

    if winner_index is None:
        if caller_cancelled.is_set():
            status = "race-cancelled"
        elif deadline_s <= 0:
            status = "race-deadline-exhausted"
        else:
            status = "race-no-feasible"
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=wall_s, solver_status=status,
            extra={"race": provenance},
        )

    winner = results[winner_index]
    extra = dict(winner.extra or {})
    extra["race"] = provenance
    return build_scheduled_result(
        strategy_name, graph, winner.matrices, budget=int(budget),
        feasible=True, solve_time_s=wall_s, solver_status="ok",
        peak_memory=winner.peak_memory, extra=extra,
    )
