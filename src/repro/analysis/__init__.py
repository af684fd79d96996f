"""Static analysis over :class:`~repro.core.dfgraph.DFGraph`: analyses + linting.

This package checks graphs for structural defects before solver time is
spent on them, and supplies the structural hash that keys the process-wide
formulation cache.  It never rewrites a graph: a schedule always targets the
graph the caller gave.

Two layers:

* :mod:`repro.analysis.analyses` -- pure, side-effect-free analyses
  (liveness/last-use intervals, reachability from the loss and gradient
  outputs, structural hashing, isomorphic-segment detection).  Nothing here
  mutates or rebuilds a graph.
* :mod:`repro.analysis.lint` -- a structured-diagnostics linter
  (severity/code/node locus) surfaced as ``repro lint``, ``POST /v1/lint``
  and a warn-only pre-solve hook inside
  :class:`~repro.service.solve.SolveService`.
"""

from .analyses import (
    dead_nodes,
    isomorphic_segment_groups,
    live_node_mask,
    live_roots,
    liveness_intervals,
    reachable_from,
    structural_graph_hash,
)
from .lint import Diagnostic, LintReport, lint_graph, lint_graph_cached

__all__ = [
    "Diagnostic",
    "LintReport",
    "dead_nodes",
    "isomorphic_segment_groups",
    "lint_graph",
    "lint_graph_cached",
    "live_node_mask",
    "live_roots",
    "liveness_intervals",
    "reachable_from",
    "structural_graph_hash",
]
