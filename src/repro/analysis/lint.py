"""Structured graph diagnostics: severity / code / node locus.

The linter turns the analyses into actionable findings *before* solver time
is spent: a malformed graph fails fast with an ``error``, a suspicious one
solves anyway but explains itself through ``warning``/``info`` diagnostics.
Surfaced three ways: the ``repro lint`` CLI verb, ``POST /v1/lint`` on the
serve daemon, and a warn-only hook inside
:meth:`~repro.service.solve.SolveService.solve` (memoized by content hash, so
a sweep lints each graph once, not once per cell).

Diagnostic codes
----------------

====  ========  ===========================================================
code  severity  meaning
====  ========  ===========================================================
G001  warning   empty graph (no nodes; nothing to solve)
R001  warning   node unreachable from the loss / gradient outputs (dead)
M001  error     ``meta['grad_index']``/``n_forward`` inconsistent with the
                graph (bad range, non-backward target, wrong count)
M002  error     positional op metadata (``op_types``/``op_attrs``/
                ``shapes``/``flops``/``params``) has the wrong length
C001  error     non-finite cost or memory (the constructor rejects them;
                this guards nodes replaced after construction)
C002  info      zero-cost single-input node -- a view of its dependency
                (``flatten``, ``identity``) and a fusion candidate
T001  error     a forward node depends on a backward node (the topological
                numbering cannot represent a training step's dataflow)
B001  warning   requested budget sits below the arithmetic minimum-feasible
                floor; the exact solvers will prove infeasibility
====  ========  ===========================================================

``DFGraph.__post_init__`` already rejects cyclic/out-of-order edges and
negative or non-finite costs outright, so the linter never sees those; it
covers the defects the constructor is too cheap to catch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.dfgraph import DFGraph
from ..utils.lru import SingleFlightLRU
from .analyses import dead_nodes

__all__ = ["Diagnostic", "LintReport", "lint_graph", "lint_graph_cached"]

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, a message and a node locus."""

    code: str
    severity: str
    message: str
    node: Optional[int] = None
    node_name: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "node": self.node,
            "node_name": self.node_name,
        }


@dataclass
class LintReport:
    """All diagnostics for one graph, plus enough context to render them."""

    graph_name: str
    graph_size: int
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    @property
    def infos(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "info")

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos do not fail a lint)."""
        return self.errors == 0

    def counts(self) -> Dict[str, int]:
        return {"error": self.errors, "warning": self.warnings,
                "info": self.infos}

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "nodes": self.graph_size,
            "ok": self.ok,
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def summary(self) -> str:
        return (f"lint {self.graph_name!r}: {self.errors} error(s), "
                f"{self.warnings} warning(s), {self.infos} info(s)")


def _diag(out: List[Diagnostic], graph: DFGraph, code: str, severity: str,
          message: str, node: Optional[int] = None) -> None:
    name = graph.nodes[node].name if node is not None else None
    out.append(Diagnostic(code=code, severity=severity, message=message,
                          node=node, node_name=name))


def _check_meta(out: List[Diagnostic], graph: DFGraph) -> None:
    meta = graph.meta or {}
    n = graph.size
    forward = graph.forward_nodes()
    n_forward = meta.get("n_forward")
    if n_forward is not None and not isinstance(n_forward, numbers.Integral):
        _diag(out, graph, "M001", "error",
              f"meta['n_forward'] must be an integer, got {n_forward!r}")
        n_forward = None
    if n_forward is not None and n_forward != len(forward):
        _diag(out, graph, "M001", "error",
              f"meta['n_forward'] = {n_forward} but the graph has "
              f"{len(forward)} forward nodes")
    grad_index = meta.get("grad_index")
    if grad_index is not None:
        if not isinstance(grad_index, dict):
            _diag(out, graph, "M001", "error",
                  f"meta['grad_index'] must be a dict, got "
                  f"{type(grad_index).__name__}")
        else:
            for fwd, grad in grad_index.items():
                try:
                    fwd, grad = int(fwd), int(grad)
                except (TypeError, ValueError):
                    _diag(out, graph, "M001", "error",
                          f"grad_index entry {fwd!r} -> {grad!r} is not a "
                          "pair of node indices")
                    continue
                if not (0 <= fwd < n) or not (0 <= grad < n):
                    _diag(out, graph, "M001", "error",
                          f"grad_index entry {fwd} -> {grad} is out of range "
                          f"for a {n}-node graph")
                    continue
                if graph.nodes[fwd].is_backward:
                    _diag(out, graph, "M001", "error",
                          f"grad_index key {fwd} is itself a backward node",
                          node=fwd)
                if not graph.nodes[grad].is_backward:
                    _diag(out, graph, "M001", "error",
                          f"grad_index target {grad} (gradient of {fwd}) is "
                          f"not a backward node", node=grad)
    lists = {key: meta.get(key) for key in
             ("op_types", "op_attrs", "shapes", "flops", "params")}
    present = {key: val for key, val in lists.items() if val is not None}
    expected = int(n_forward) if n_forward is not None else len(forward)
    for key, val in present.items():
        if not isinstance(val, (list, tuple)):
            _diag(out, graph, "M002", "error",
                  f"meta[{key!r}] must be a per-layer sequence, got "
                  f"{type(val).__name__}")
        elif len(val) != expected:
            _diag(out, graph, "M002", "error",
                  f"meta[{key!r}] has {len(val)} entries for "
                  f"{expected} forward nodes")


def lint_graph(graph: DFGraph, *, budget: Optional[float] = None) -> LintReport:
    """Run every check against ``graph`` and return a :class:`LintReport`.

    ``budget`` (bytes) is optional; when given, the ``B001`` feasibility
    pre-check compares it against the same arithmetic floor the warm-start
    machinery short-circuits infeasible sweep cells with, so the linter and
    the solvers agree about which budgets are hopeless.
    """
    report = LintReport(graph_name=graph.name, graph_size=graph.size)
    out = report.diagnostics
    if graph.size == 0:
        _diag(out, graph, "G001", "warning", "graph has no nodes")
        return report

    for i in dead_nodes(graph):
        _diag(out, graph, "R001", "warning",
              "node cannot reach the loss or any gradient output; "
              "no schedule needs its value", node=i)

    _check_meta(out, graph)

    for i, node in enumerate(graph.nodes):
        if not math.isfinite(node.cost):
            _diag(out, graph, "C001", "error",
                  f"cost is {node.cost!r} (must be finite)", node=i)
        if not math.isfinite(node.memory):
            _diag(out, graph, "C001", "error",
                  f"memory is {node.memory!r} (must be finite)", node=i)

    terminal = graph.terminal_node
    for j in range(graph.size):
        parents = graph.deps[j]
        if (j != terminal and len(parents) == 1 and graph.cost(j) == 0.0
                and math.isfinite(graph.nodes[j].memory)
                and graph.nodes[parents[0]].is_backward
                == graph.nodes[j].is_backward):
            _diag(out, graph, "C002", "info",
                  f"zero-cost node with single input {parents[0]}; a view "
                  "of its dependency and a fusion candidate", node=j)
        if not graph.nodes[j].is_backward:
            for i in parents:
                if graph.nodes[i].is_backward:
                    _diag(out, graph, "T001", "error",
                          f"forward node depends on backward node {i}",
                          node=j)

    if budget is not None:
        # Imported lazily: repro.solvers pulls in scipy, which the pure
        # analyses deliberately avoid at import time.
        from ..solvers.warm import budget_floor_margin, min_feasible_budget_floor
        try:
            floor = min_feasible_budget_floor(graph)
            margin = budget_floor_margin(graph)
        except (ValueError, TypeError):
            floor = margin = None  # a graph broken enough to defeat the floor
        if floor is not None and float(budget) < floor - margin:
            _diag(out, graph, "B001", "warning",
                  f"budget {float(budget):.6g} B is below the minimum "
                  f"feasible floor {floor:.6g} B; exact solvers will prove "
                  "infeasibility")
    return report


#: The process-wide memo behind :func:`lint_graph_cached`.
lint_cache: SingleFlightLRU[Tuple[str, Optional[str]], LintReport] = SingleFlightLRU(256)


def lint_graph_cached(graph: DFGraph, *,
                      budget: Optional[float] = None) -> LintReport:
    """Memoized :func:`lint_graph`, keyed by content hash and budget.

    This is the pre-solve hook's entry point: sweeps re-solve the same graph
    across dozens of (strategy, budget) cells, and linting is pure, so one
    report per (graph, budget) is computed and replayed.  The memo is a small
    process-wide LRU; treat returned reports as immutable.
    """
    from ..service.hashing import graph_content_hash

    key = (graph_content_hash(graph),
           repr(float(budget)) if budget is not None else None)
    return lint_cache.get_or_compute(key, lambda: lint_graph(graph, budget=budget))
