"""Baseline rematerialization strategies (Table 1 of the paper) and generalizations."""

from .chen import (
    ap_candidates,
    chen_greedy_checkpoints,
    chen_sqrt_n_checkpoints,
    solve_chen_greedy,
    solve_chen_sqrt_n,
)
from .griewank import is_linear_forward_graph, revolve_storage_timeline, solve_griewank_logn
from .segmenting import forward_candidates, segment_checkpoint_schedule, training_graph_metadata
from .strategies import STRATEGIES, solve_checkpoint_all

__all__ = [
    "ap_candidates",
    "chen_greedy_checkpoints",
    "chen_sqrt_n_checkpoints",
    "solve_chen_greedy",
    "solve_chen_sqrt_n",
    "is_linear_forward_graph",
    "revolve_storage_timeline",
    "solve_griewank_logn",
    "forward_candidates",
    "segment_checkpoint_schedule",
    "training_graph_metadata",
    "STRATEGIES",
    "solve_checkpoint_all",
]
