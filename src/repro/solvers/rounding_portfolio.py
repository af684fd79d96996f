"""The four-scheme LP-rounding portfolio (paper §5.2 generalized).

Algorithm 2 of the paper rounds the checkpoint matrix ``S*`` of the LP
relaxation and completes the schedule with the conditionally optimal ``R``.
This module is the one implementation of that rounding: every scheme rounds
the *same* compiled-formulation LP relaxation, draws its candidates from one
lazy generator (:func:`rounded_candidates`) and completes each through the
same ``solve_min_r`` path:

``threshold_sweep``
    Deterministic sweep over candidate thresholds drawn from the unique
    fractional values of ``S*`` (0.5 always included); among feasible rounded
    schedules the cheapest wins.  Dominates ``fixed_half`` by construction.
``random_threshold``
    ``num_samples`` thresholds drawn uniformly from ``(0, 1)`` with a seeded
    generator; cheapest feasible rounding wins.
``fixed_half``
    The paper's single 0.5 threshold (§5.3, Table 2).  The Table 1 strategy
    ``checkmate_approx`` is this scheme under the strategy name
    ``checkmate-approx-lp``.
``randomized``
    Fully randomized rounding (``Pr[S_int = 1] = S*``) with feasibility
    retries: up to ``num_samples`` Bernoulli draws, one
    ``rng.random(S.shape)`` per draw, cheapest feasible wins.  The Figure 8
    scatter (:func:`~repro.solvers.approximation.randomized_rounding_samples`)
    draws from the same stream.

Because the budget only enters the LP through one bound slice (see
:mod:`repro.solvers.compiled`), all four schemes -- and the race meta-solver
fanning them out concurrently -- share **one** LP relaxation solve per
``(graph, lp-budget)`` through the process-wide single-flight
:class:`LPRelaxationCache` below.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..analysis.analyses import structural_graph_hash
from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduleMatrices, ScheduledResult, schedule_compute_cost
from ..core.simulator import schedule_peak_memory
from ..obs.trace import get_tracer
from ..utils.lru import SingleFlightLRU
from ..utils.timer import Timer
from .common import build_scheduled_result
from .lp_relaxation import LPRelaxationResult, solve_lp_relaxation
from .min_r import solve_min_r

__all__ = [
    "PORTFOLIO_SCHEMES",
    "PORTFOLIO_STRATEGY_KEYS",
    "LPRelaxationCache",
    "get_lp_relaxation_cache",
    "rounded_candidates",
    "solve_rounding_portfolio",
]

#: Scheme names and their registry strategy keys, in the same order.
#: Ordering matters: it is the default entrant order of the race meta-solver
#: (cheapest first).  ``fixed_half`` is the Table 1 ``checkmate_approx``; the
#: others register as ``approx_<scheme>``.
PORTFOLIO_SCHEMES: Tuple[str, ...] = (
    "fixed_half", "threshold_sweep", "random_threshold", "randomized",
)
PORTFOLIO_STRATEGY_KEYS: Tuple[str, ...] = ("checkmate_approx",) + tuple(
    f"approx_{scheme}" for scheme in PORTFOLIO_SCHEMES[1:]
)


class LPRelaxationCache:
    """Per-process LRU of LP relaxation solves keyed by graph structure + budget.

    The fractional ``(R*, S*)`` depends only on the structural hash and the
    LP budget, so every scheme rounding one relaxation shares its solve (see
    the module docstring).  The time limit is
    deliberately NOT part of the key: only *settled* relaxations are cached
    (optimal or proven infeasible), and those verdicts are limit-independent
    -- keying on the limit would shatter the race path, where each entrant
    clamps its limit to the slightly different time remaining at its start.
    A time-limit-truncated status is load-dependent: it goes back to its own
    caller only, neither stored nor handed to concurrent waiters.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._lru: SingleFlightLRU[tuple, LPRelaxationResult] = SingleFlightLRU(max_entries)

    def get(self, graph: DFGraph, budget: float, *,
            time_limit_s: float = 600.0) -> LPRelaxationResult:
        """Return the (possibly cached) LP relaxation at ``budget``."""
        return self._lru.get_or_compute(
            (structural_graph_hash(graph), float(budget)),
            lambda: solve_lp_relaxation(graph, budget, time_limit_s=time_limit_s),
            store=_settled,
        )

    def stats(self) -> Dict[str, object]:
        stats = self._lru.stats()
        stats["solves"] = stats.pop("computes")
        return stats


def _settled(result: LPRelaxationResult) -> bool:
    """Optimal or proven infeasible: a verdict no time limit can change."""
    return result.status == "optimal" or result.status.startswith("infeasible")


_lp_cache = LPRelaxationCache()


def get_lp_relaxation_cache() -> LPRelaxationCache:
    """The process-wide shared LP relaxation cache."""
    return _lp_cache


def _candidate_thresholds(S_frac: np.ndarray, scheme: str, num_samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """The thresholds one scheme tries, in evaluation order."""
    if scheme == "fixed_half":
        return np.array([0.5])
    if scheme == "random_threshold":
        return rng.uniform(0.0, 1.0, size=num_samples)
    if scheme == "threshold_sweep":
        # Every threshold strictly between two adjacent fractional values of
        # S* rounds identically, so the unique values themselves enumerate all
        # distinct deterministic roundings.  Cap the sweep at ``num_samples``
        # evenly spaced picks to bound min-R completions on dense relaxations;
        # 0.5 is always included so the sweep dominates ``fixed_half``.
        unique = np.unique(S_frac[(S_frac > 0.0) & (S_frac < 1.0)])
        if unique.size > num_samples - 1:
            picks = np.linspace(0, unique.size - 1,
                                num_samples - 1).round().astype(int)
            unique = unique[np.unique(picks)]
        return np.unique(np.append(unique, 0.5))
    raise ValueError(f"unknown portfolio scheme {scheme!r}")


def rounded_candidates(
    S_frac: np.ndarray, scheme: str, num_samples: int, rng: np.random.Generator,
) -> Iterator[Tuple[Optional[float], np.ndarray]]:
    """Yield one scheme's roundings ``(threshold, S_int)`` of ``S*`` lazily.

    ``threshold`` is ``None`` for a randomized draw (one
    ``rng.random(S.shape)`` each).
    """
    thresholds = (itertools.repeat(None, num_samples)
                  if scheme == "randomized"
                  else _candidate_thresholds(S_frac, scheme, num_samples, rng))
    for threshold in thresholds:
        if threshold is None:
            S_int = rng.random(S_frac.shape) < S_frac
        else:
            S_int = S_frac > threshold
        yield threshold, S_int.astype(np.uint8)


_DEFAULT_SAMPLES = {
    "fixed_half": 1,
    "threshold_sweep": 32,
    "random_threshold": 16,
    "randomized": 32,
}


def solve_rounding_portfolio(
    graph: DFGraph,
    budget: Optional[float] = None,
    *,
    scheme: str = "threshold_sweep",
    allowance: float = 0.1,
    num_samples: Optional[int] = None,
    seed: int = 0,
    lp_time_limit_s: float = 600.0,
    lp_result: Optional[LPRelaxationResult] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> ScheduledResult:
    """Solve via one portfolio scheme: shared LP relaxation + rounding search.

    The LP is solved at ``(1 - allowance) * budget`` (§5.3) through the
    process-wide :class:`LPRelaxationCache`; each rounded candidate is
    completed with the conditionally optimal ``R`` (:func:`solve_min_r`) and
    checked against the *full* budget.  ``num_samples`` bounds the number of
    candidates (thresholds or Bernoulli draws; default per scheme).

    ``should_cancel`` makes the candidate loop cooperative: when the hook
    fires mid-search the solve stops and returns the best candidate found so
    far (status ``"ok-cancelled"``) or an infeasible ``"cancelled"`` result --
    never an exception -- so a racing deadline can reap stragglers cheaply.
    """
    if budget is None:
        raise ValueError("the rounding portfolio requires a memory budget")
    if scheme not in PORTFOLIO_SCHEMES:
        raise ValueError(
            f"unknown portfolio scheme {scheme!r}; known: {PORTFOLIO_SCHEMES}")
    if not (0.0 <= allowance < 1.0):
        raise ValueError("allowance must be in [0, 1)")
    strategy_name = ("checkmate-approx-lp" if scheme == "fixed_half"
                     else f"approx_{scheme}")
    samples = max(1, int(num_samples)) if num_samples is not None \
        else _DEFAULT_SAMPLES[scheme]

    tracer = get_tracer()
    with Timer() as timer, tracer.span("portfolio-round", scheme=scheme):
        if lp_result is None:
            lp_result = get_lp_relaxation_cache().get(
                graph, budget * (1.0 - allowance), time_limit_s=lp_time_limit_s)
        if not lp_result.feasible or lp_result.S_fractional is None:
            return build_scheduled_result(
                strategy_name, graph, None, budget=int(budget), feasible=False,
                solve_time_s=lp_result.solve_time_s,
                solver_status=f"lp-{lp_result.status}",
                extra={"portfolio": {"scheme": scheme, "allowance": allowance}},
            )

        S_frac = np.asarray(lp_result.S_fractional, dtype=np.float64)
        rng = np.random.default_rng(seed)
        best: Optional[ScheduleMatrices] = None
        best_cost = float("inf")
        best_peak = 0
        best_threshold: Optional[float] = None
        attempts = 0
        feasible_candidates = 0
        cancelled = False
        for threshold, S_int in rounded_candidates(S_frac, scheme, samples, rng):
            if should_cancel is not None and should_cancel():
                cancelled = True
                break
            attempts += 1
            matrices = solve_min_r(graph, S_int)
            peak = schedule_peak_memory(graph, matrices)
            if peak > budget:
                continue
            feasible_candidates += 1
            cost = schedule_compute_cost(graph, matrices)
            if cost < best_cost:
                best, best_cost, best_peak = matrices, cost, peak
                best_threshold = threshold

    provenance = {
        "scheme": scheme,
        "allowance": allowance,
        "attempts": attempts,
        "feasible_candidates": feasible_candidates,
        "cancelled": cancelled,
    }
    if best_threshold is not None:
        provenance["best_threshold"] = float(best_threshold)
    extra = {"lp_objective": lp_result.objective, "portfolio": provenance}
    if best is None:
        return build_scheduled_result(
            strategy_name, graph, None, budget=int(budget), feasible=False,
            solve_time_s=timer.elapsed,
            solver_status="cancelled" if cancelled else "rounding-exceeded-budget",
            extra=extra,
        )
    return build_scheduled_result(
        strategy_name, graph, best, budget=int(budget), feasible=True,
        solve_time_s=timer.elapsed + lp_result.solve_time_s,
        solver_status="ok-cancelled" if cancelled else "ok",
        peak_memory=best_peak, extra=extra,
    )
