"""Reference implementations the test-suite checks the product against.

None of these ship in :mod:`repro`: the loop-built MILP formulation is the
oracle for :class:`~repro.solvers.compiled.CompiledFormulation`, the
branch-and-bound solver cross-checks HiGHS on tiny graphs, and the
sequential simulator is the oracle for the vectorized ``U`` recurrence.
"""

from __future__ import annotations

from repro.service.registry import SolverRegistry, SolverSpec, default_registry

from .branch_and_bound import (
    BranchAndBoundResult,
    solve_branch_and_bound,
    solve_branch_and_bound_schedule,
)
from .formulation import MILPFormulation, highs_milp
from .simulator import simulate_schedule_memory_reference

__all__ = [
    "BranchAndBoundResult",
    "MILPFormulation",
    "highs_milp",
    "registry_with_bnb",
    "simulate_schedule_memory_reference",
    "solve_branch_and_bound",
    "solve_branch_and_bound_schedule",
]


def registry_with_bnb() -> SolverRegistry:
    """The product registry plus the reference branch-and-bound, registered
    as ``checkmate_bnb`` for tests that drive it through ``SolveService``."""
    registry = default_registry()
    registry.register(SolverSpec(
        key="checkmate_bnb",
        description="Reference LP-based branch-and-bound (exact, tiny graphs only).",
        solve=solve_branch_and_bound_schedule,
        uses_formulation=True,
        warm_start_capable=True,
    ))
    return registry
