"""One solver registry for the whole system.

:class:`SolverRegistry` holds every strategy behind a single :class:`Solver`
protocol:

``solve(graph, budget=None, **kwargs) -> ScheduledResult``

Each :class:`SolverSpec` additionally carries

* the qualitative Table 1 capability flags (so the strategy-matrix experiment
  renders straight from the registry),
* an ``option_map`` translating typed :class:`~repro.service.options.
  SolverOptions` fields into that solver's keyword names -- the replacement
  for per-callsite ``if key == "checkmate_ilp"`` special-casing, and
* structural attributes (``linear_only``, ``has_budget_knob``) the sweep
  planner uses.

A solver is declared once, next to its implementation where it has one: the
ten Table 1 specs live in :mod:`repro.baselines.strategies`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Protocol

from ..core.dfgraph import DFGraph
from ..core.schedule import ScheduledResult

__all__ = ["FIXED_HALF_OPTIONS", "Solver", "SolverSpec", "SolverRegistry",
           "default_registry"]


class Solver(Protocol):
    """The uniform solve contract every registered strategy satisfies."""

    def __call__(self, graph: DFGraph, budget: Optional[float] = None,
                 **kwargs: object) -> ScheduledResult: ...


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver plus everything the service needs to drive it.

    ``general_graphs`` / ``cost_aware`` / ``memory_aware`` mirror the columns
    of the paper's Table 1 (``True``, ``False`` or ``"~"`` for partial).
    ``in_table1`` marks the ten strategies the paper tabulates; extra solvers
    (raw min-R, the rounding portfolio, the race) register with it unset so
    the rendered table stays faithful to the paper.
    """

    key: str
    description: str
    solve: Callable[..., ScheduledResult]
    general_graphs: object = True
    cost_aware: object = True
    memory_aware: object = True
    linear_only: bool = False
    has_budget_knob: bool = True
    in_table1: bool = False
    option_map: Mapping[str, str] = field(default_factory=dict)
    #: Whether the solver routes through the MILP/LP formulation of Eq. (9);
    #: the sweep executor precompiles it once for these.
    uses_formulation: bool = False
    #: Whether the solver accepts a ``warm_start=`` WarmSeed keyword and can
    #: exploit a neighboring budget's incumbent.  Only *exact* solvers qualify:
    #: their optimum is monotone in budget, so a fitting proven seed transfers.
    #: The LP-rounding approximation does not (its LP is solved at
    #: ``(1 - allowance) * budget``, coupling the solution to the budget), and
    #: heuristics have no incumbent to seed.
    warm_start_capable: bool = False
    #: Whether the solver accepts a ``should_cancel=`` zero-arg hook and polls
    #: it cooperatively mid-solve (between rounding candidates, between race
    #: entrants).  The service forwards its own hook to these solvers so a
    #: cancel/deadline can reap work *inside* a solve, not just before it.
    accepts_should_cancel: bool = False


class SolverRegistry:
    """Mutable name -> :class:`SolverSpec` mapping with ordered iteration."""

    def __init__(self, specs: Optional[Mapping[str, SolverSpec]] = None) -> None:
        self._specs: Dict[str, SolverSpec] = dict(specs or {})

    def register(self, spec: SolverSpec, *, overwrite: bool = False) -> SolverSpec:
        """Add a solver; refuses to silently replace one unless ``overwrite``."""
        if spec.key in self._specs and not overwrite:
            raise KeyError(f"solver {spec.key!r} already registered")
        self._specs[spec.key] = spec
        return spec

    def get(self, key: str) -> SolverSpec:
        if key not in self._specs:
            raise KeyError(
                f"unknown solver {key!r}; available: {', '.join(sorted(self._specs))}"
            )
        return self._specs[key]

    def keys(self) -> List[str]:
        return list(self._specs)

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def table1_entries(self) -> List[SolverSpec]:
        """The strategies of the paper's Table 1, in registration order."""
        return [spec for spec in self if spec.in_table1]


#: SolverOptions fields ``checkmate_approx`` (the ``fixed_half`` scheme)
#: understands.  Its one 0.5 threshold draws no samples and no random
#: numbers, so ``num_samples`` and ``seed`` stay out of its cache token.
FIXED_HALF_OPTIONS = {
    "lp_time_limit_s": "lp_time_limit_s",
    "allowance": "allowance",
}

#: SolverOptions fields the sampling portfolio schemes understand.  There is
#: no rounding-mode option: the scheme *is* the strategy key.
_PORTFOLIO_OPTIONS = {
    **FIXED_HALF_OPTIONS,
    "num_samples": "num_samples",
    "seed": "seed",
}

#: SolverOptions fields the race meta-solver understands: the portfolio's, the
#: ILP entrant's ``time_limit_s``, and its own ``deadline_s`` and ``entrants``.
#: The last two are part of the option map on purpose: they enter the plan
#: cache token, so schedules raced under different SLOs or entrant sets never
#: alias one another in the cache.
_RACE_OPTIONS = {
    **_PORTFOLIO_OPTIONS,
    "deadline_s": "deadline_s",
    "entrants": "entrants",
    "time_limit_s": "time_limit_s",
}

#: One-line descriptions of the sampling portfolio schemes, each registered
#: as ``approx_<scheme>``.  The fourth scheme, ``fixed_half``, is the Table 1
#: strategy ``checkmate_approx``.
_SAMPLING_SCHEMES = {
    "threshold_sweep": "Deterministic sweep over the distinct S* "
                       "thresholds; cheapest feasible rounding wins.",
    "random_threshold": "Seeded uniform random thresholds on S*; "
                        "cheapest feasible rounding wins.",
    "randomized": "Fully randomized Bernoulli(S*) rounding with "
                  "feasibility retries.",
}


def default_registry() -> SolverRegistry:
    """Build the canonical registry: Table 1 strategies + the extra solvers.

    The ten ``baselines.STRATEGIES`` specs are registered as declared; the
    solvers from :mod:`repro.solvers` outside Table 1 (explicit-checkpoint
    min-R, the sampling portfolio schemes and the race) are added behind the
    same protocol.
    """
    from ..baselines.strategies import STRATEGIES
    from ..solvers.min_r import solve_min_r_schedule
    from ..solvers.race import solve_race
    from ..solvers.rounding_portfolio import solve_rounding_portfolio

    registry = SolverRegistry(STRATEGIES)
    registry.register(SolverSpec(
        key="min_r",
        description="Min-R completion of an explicit checkpoint set.",
        solve=solve_min_r_schedule,
        cost_aware=False,
        memory_aware=False,
        has_budget_knob=False,
        option_map={"checkpoints": "checkpoints"},
    ))
    for scheme, description in _SAMPLING_SCHEMES.items():
        registry.register(SolverSpec(
            key=f"approx_{scheme}",
            description=description,
            solve=functools.partial(solve_rounding_portfolio, scheme=scheme),
            option_map=_PORTFOLIO_OPTIONS,
            uses_formulation=True,
            accepts_should_cancel=True,
        ))
    registry.register(SolverSpec(
        key="race",
        description="Deadline race: portfolio schemes + exact ILP in "
                    "parallel; best feasible within deadline_s wins.",
        # Bound to this registry: entrants resolve (and overrides apply)
        # in the registry the race is served from.
        solve=functools.partial(solve_race, registry=registry),
        option_map=_RACE_OPTIONS,
        uses_formulation=True,
        accepts_should_cancel=True,
    ))
    return registry
