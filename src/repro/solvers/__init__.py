"""Rematerialization solvers: optimal MILP, LP relaxation, rounding approximation.

Every exact solve runs on HiGHS over the compiled formulation
(:mod:`repro.solvers.compiled`).  The loop-built reference formulation and
the branch-and-bound solver that cross-check it live in ``tests/oracles/``.
"""

from .approximation import (
    RoundingSample,
    naive_rounding_feasibility,
    randomized_rounding_samples,
)
from .common import build_scheduled_result
from .compiled import (
    CompiledFormulation,
    FormulationArrays,
    FormulationCache,
    InfeasibleBudgetError,
    formulation_and_arrays,
    get_formulation_cache,
    set_formulation_cache,
)
from .ilp import ILP_STRATEGY_NAME, solve_ilp_rematerialization
from .lp_relaxation import LPRelaxationResult, solve_lp_relaxation
from .min_r import checkpoint_set_to_schedule, solve_min_r, solve_min_r_schedule
from .race import DEFAULT_ENTRANTS, RACE_STRATEGY_NAME, solve_race
from .rounding_portfolio import (
    LPRelaxationCache,
    PORTFOLIO_SCHEMES,
    PORTFOLIO_STRATEGY_KEYS,
    get_lp_relaxation_cache,
    solve_rounding_portfolio,
)
from .warm import (
    WarmSeed,
    budget_floor_margin,
    min_feasible_budget_floor,
    tighten_schedule,
    warm_seed_from_result,
)

__all__ = [
    "RoundingSample",
    "naive_rounding_feasibility",
    "randomized_rounding_samples",
    "solve_min_r_schedule",
    "build_scheduled_result",
    "CompiledFormulation",
    "FormulationCache",
    "formulation_and_arrays",
    "get_formulation_cache",
    "set_formulation_cache",
    "FormulationArrays",
    "InfeasibleBudgetError",
    "ILP_STRATEGY_NAME",
    "solve_ilp_rematerialization",
    "LPRelaxationResult",
    "solve_lp_relaxation",
    "checkpoint_set_to_schedule",
    "solve_min_r",
    "DEFAULT_ENTRANTS",
    "RACE_STRATEGY_NAME",
    "solve_race",
    "LPRelaxationCache",
    "PORTFOLIO_SCHEMES",
    "PORTFOLIO_STRATEGY_KEYS",
    "get_lp_relaxation_cache",
    "solve_rounding_portfolio",
    "WarmSeed",
    "budget_floor_margin",
    "min_feasible_budget_floor",
    "tighten_schedule",
    "warm_seed_from_result",
]
