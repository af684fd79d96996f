"""Plain helper functions shared by test modules.

These live outside ``conftest.py`` on purpose: conftest files are pytest
plugin hooks, not importable libraries, and importing ``from conftest``
resolves against whichever conftest happens to be first on ``sys.path``
(historically the ``benchmarks/`` one shadowed ``tests/``).  Test modules
import budget helpers from here instead.
"""

from __future__ import annotations

from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core import DFGraph


def ample_budget(graph: DFGraph) -> int:
    """A budget large enough that no rematerialization is ever needed."""
    return int(graph.constant_overhead + graph.total_activation_memory() * 2 + 10)


def tight_budget(graph: DFGraph, fraction: float = 0.5) -> int:
    """A budget at ``fraction`` of the retained-activation footprint."""
    return int(graph.constant_overhead + graph.total_activation_memory() * fraction)


def highs_milp(arrays, *, mip_gap: float = 1e-4):
    """Solve loop-built ``FormulationArrays`` with HiGHS directly, using the
    options ``solve_ilp_rematerialization`` passes (no budget-floor or memo
    shortcut in between)."""
    return milp(
        c=arrays.c,
        constraints=LinearConstraint(arrays.A, arrays.constraint_lb,
                                     arrays.constraint_ub),
        integrality=arrays.integrality,
        bounds=Bounds(arrays.lb, arrays.ub),
        options={"mip_rel_gap": mip_gap, "presolve": True},
    )
