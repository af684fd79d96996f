"""Plain helper functions shared by test modules.

These live outside ``conftest.py`` on purpose: conftest files are pytest
plugin hooks, not importable libraries, and importing ``from conftest``
resolves against whichever conftest happens to be first on ``sys.path``
(historically the ``benchmarks/`` one shadowed ``tests/``).  Test modules
import budget helpers from here instead.
"""

from __future__ import annotations

import numpy as np

from repro.core import DFGraph, no_recompute_schedule, schedule_peak_memory
from repro.solvers.warm import min_feasible_budget_floor


def ample_budget(graph: DFGraph) -> int:
    """A budget large enough that no rematerialization is ever needed."""
    return int(graph.constant_overhead + graph.total_activation_memory() * 2 + 10)


def tight_budget(graph: DFGraph, fraction: float = 0.5) -> int:
    """A budget at ``fraction`` of the retained-activation footprint."""
    return int(graph.constant_overhead + graph.total_activation_memory() * fraction)


def no_recompute_peak(graph: DFGraph) -> int:
    """Peak of the no-recompute schedule: at or above it an exact
    frontier-advancing solve is answered by the liveness certificate."""
    return schedule_peak_memory(graph, no_recompute_schedule(graph))


def below_liveness_budget(graph: DFGraph, fraction: float = 0.5) -> int:
    """A budget ``fraction`` of the way from the integral budget floor up to
    the no-recompute peak, and strictly below that peak: an exact solve there
    skips the liveness certificate and reaches the LP certificate or HiGHS."""
    floor = min_feasible_budget_floor(graph)
    peak = no_recompute_peak(graph)
    return min(int(floor + fraction * (peak - floor)), peak - 1)


def reference_canonical_meta(value):
    """The original recursive ``meta`` canonicalization of the content hash,
    kept as the reference ``repro.service.hashing._canonical_meta`` must
    match byte for byte after ``json.dumps`` (numpy booleans aside: the
    reference hashes them through their numpy-version-dependent ``repr``)."""
    if isinstance(value, dict):
        return {str(k): reference_canonical_meta(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [reference_canonical_meta(v) for v in value]
    if isinstance(value, np.ndarray):
        return ["__ndarray__", list(value.shape), value.dtype.str, value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return repr(value)
