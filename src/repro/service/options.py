"""Typed solver options: one immutable bag replacing per-callsite kwarg plumbing.

Before the solve-service layer, every experiment loop special-cased solver
keyword arguments by hand (``if key == "checkmate_ilp": kwargs["time_limit_s"]
= ...``).  :class:`SolverOptions` centralizes that: callers describe *all* the
knobs they care about once, and each registered solver declares -- via its
``option_map`` -- which of those knobs it understands and under which keyword
name.  Options a solver does not accept are simply not forwarded, so a single
``SolverOptions`` value can safely drive a heterogeneous sweep over the whole
registry.

The class is frozen and canonically serializable (:meth:`cache_token`) so that
it can participate in content-addressed plan-cache keys.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

__all__ = ["SolverOptions"]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_SECONDS = (_is_number, lambda v: 0 < v < math.inf,
            "a positive, finite number of seconds")
_COUNT = (_is_int, lambda v: v > 0, "a positive integer")

#: Scalar field -> (type check, range check, what is expected).  A set value
#: of the wrong type raises ``TypeError``, one out of range ``ValueError``.
_RULES: Dict[str, Tuple[Callable[[object], bool], Callable, str]] = {
    "time_limit_s": _SECONDS,
    "lp_time_limit_s": _SECONDS,
    "mip_gap": (_is_number, lambda v: v >= 0, "a number >= 0"),
    "allowance": (_is_number, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "num_samples": _COUNT,
    "seed": (_is_int, lambda v: True, "an integer"),
    "deadline_s": (_is_number, math.isfinite, "a finite number of seconds"),
}


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs understood by the service layer.

    Every field defaults to ``None`` meaning "use the solver's own default".
    Only non-``None`` fields that appear in a solver's ``option_map`` are
    forwarded to the underlying ``solve`` callable.  There is no knob for the
    execution plan: every result lowers it on first access to
    ``ScheduledResult.plan``, so a solve never pays for it up front.

    Attributes
    ----------
    time_limit_s:
        Wall-clock limit for the MILP solver.
    lp_time_limit_s:
        Wall-clock limit for the LP relaxation inside the rounding
        approximation (defaults to the solver's own generous limit).
    mip_gap:
        Relative optimality gap at which the MILP solver may stop.
    allowance:
        LP-rounding memory allowance (paper §5.3): the LP is solved at
        ``(1 - allowance) * budget``.  The rounding scheme is the strategy
        key (``checkmate_approx`` rounds at 0.5, ``approx_randomized`` draws
        Bernoulli samples), not an option.
    num_samples:
        Number of rounding candidates (thresholds or random draws) to try.
    seed:
        RNG seed for the randomized rounding schemes.
    checkpoints:
        Explicit checkpoint set for the min-R completion solver.
    deadline_s:
        Wall-clock deadline for the ``race`` meta-solver: the best feasible
        schedule found within it wins; ``<= 0`` starts nothing.  Distinct
        from the serve daemon's per-*job* ``deadline_s`` (which fails the job
        outright); this one shapes the solve and still returns a result.
    entrants:
        Strategy keys the ``race`` meta-solver fans out (default: the four
        rounding-portfolio schemes plus the exact ILP).  Order is preserved
        -- it is the race's tie-break.
    """

    time_limit_s: Optional[float] = None
    lp_time_limit_s: Optional[float] = None
    mip_gap: Optional[float] = None
    allowance: Optional[float] = None
    num_samples: Optional[int] = None
    seed: Optional[int] = None
    checkpoints: Optional[Tuple[int, ...]] = None
    deadline_s: Optional[float] = None
    entrants: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for name, (kind, in_range, expected) in _RULES.items():
            value = getattr(self, name)
            if value is None:
                continue
            if not kind(value):
                raise TypeError(f"{name} must be {expected}, got {value!r}")
            if not in_range(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        if self.checkpoints is not None:
            object.__setattr__(self, "checkpoints",
                               tuple(sorted(int(c) for c in self.checkpoints)))
        if self.entrants is not None:
            # Coerce to a tuple (wire payloads carry lists) but keep order:
            # entrant order is the race's deterministic tie-break.
            object.__setattr__(self, "entrants",
                               tuple(str(e) for e in self.entrants))

    def replace(self, **changes) -> "SolverOptions":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def kwargs_for(self, option_map: Mapping[str, str]) -> Dict[str, object]:
        """Project the options onto one solver's keyword arguments.

        ``option_map`` maps :class:`SolverOptions` field names to the keyword
        names of the target ``solve`` callable; fields that are ``None`` or
        unmapped are dropped.
        """
        kwargs: Dict[str, object] = {}
        for field_name, kwarg_name in option_map.items():
            value = getattr(self, field_name)
            if value is not None:
                kwargs[kwarg_name] = value
        return kwargs

    def cache_token(self, option_map: Mapping[str, str]) -> str:
        """Canonical string of the options *as seen by* one solver.

        Two option bags that project to the same solver kwargs produce the
        same token, so e.g. changing ``time_limit_s`` does not invalidate
        cached heuristic solves that never see it.
        """
        kwargs = self.kwargs_for(option_map)
        return json.dumps(kwargs, sort_keys=True, default=repr)
