"""Data-flow graph substrate used by every Checkmate component.

The Checkmate optimizer (paper Section 4.1) consumes an abstract computation
graph ``G = (V, E)``: a directed acyclic graph whose nodes are operations that
each produce a single output value (a tensor), annotated with

* ``cost``   -- the time (or FLOPs) to compute the node from its inputs, and
* ``memory`` -- the number of bytes needed to hold the node's output.

Nodes are numbered ``0 .. n-1`` in a topological order so that an operation may
only depend on lower-numbered operations, exactly as in the paper.  The
:class:`DFGraph` class here is the Python equivalent of the graph Checkmate
extracts from a TensorFlow model: it is produced by the builders in
:mod:`repro.models` and :mod:`repro.autodiff` and consumed by the solvers in
:mod:`repro.solvers` and the heuristics in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeInfo", "DFGraph", "GraphError"]


class GraphError(ValueError):
    """Raised when a :class:`DFGraph` is constructed from inconsistent data."""


@dataclass(frozen=True)
class NodeInfo:
    """Static metadata attached to a single graph node.

    Attributes
    ----------
    name:
        Human readable operation name (e.g. ``"conv2_1"`` or ``"grad_conv2_1"``).
    cost:
        Cost of computing the node once all dependencies are resident.  The
        unit is whatever the cost model produced (seconds, milliseconds or
        FLOPs); the solvers only require it to be additive.
    memory:
        Bytes required to hold the node's output value.
    is_backward:
        ``True`` for nodes introduced by reverse-mode differentiation.
    layer_id:
        Index of the originating layer in the forward network, if any.  Used
        only for reporting and visualization.
    """

    name: str
    cost: float
    memory: int
    is_backward: bool = False
    layer_id: Optional[int] = None


@dataclass
class DFGraph:
    """A topologically ordered data-flow DAG with per-node cost and memory.

    Parameters
    ----------
    nodes:
        Node metadata, index ``i`` describing operation ``v_i``.  The order of
        this sequence *is* the topological order used by the solvers.
    deps:
        ``deps[j]`` lists the parents of node ``j`` (the operations whose
        outputs are consumed when computing ``v_j``).  Every parent index must
        be strictly smaller than ``j``.
    input_memory:
        Bytes permanently reserved for the network inputs (paper Eq. 2).
    parameter_memory:
        Bytes of model parameters.  Following the paper, ``2 *
        parameter_memory`` is reserved for parameters plus their gradients.
    name:
        Optional graph name (e.g. ``"VGG16-train-b256"``) used in reports.
    """

    nodes: Sequence[NodeInfo]
    deps: Mapping[int, Sequence[int]]
    input_memory: int = 0
    parameter_memory: int = 0
    name: str = "graph"
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        n = len(self.nodes)
        clean_deps: Dict[int, Tuple[int, ...]] = {}
        for j in range(n):
            parents = tuple(sorted(set(self.deps.get(j, ()))))
            for i in parents:
                if not (0 <= i < n):
                    raise GraphError(f"node {j} depends on out-of-range node {i}")
                if i >= j:
                    raise GraphError(
                        f"node {j} depends on node {i}: dependencies must respect the "
                        "topological order (parent index < child index)"
                    )
            clean_deps[j] = parents
        self.deps = clean_deps
        users: Dict[int, List[int]] = {i: [] for i in range(n)}
        for j, parents in clean_deps.items():
            for i in parents:
                users[i].append(j)
        self._users: Dict[int, Tuple[int, ...]] = {
            i: tuple(sorted(js)) for i, js in users.items()
        }
        self._cost_vec = np.array([v.cost for v in self.nodes], dtype=np.float64)
        self._mem_vec = np.array([v.memory for v in self.nodes], dtype=np.float64)
        for label, values in (("costs", self._cost_vec),
                              ("memories", self._mem_vec)):
            if not np.all(np.isfinite(values)):
                raise GraphError(f"node {label} must be finite")
            if np.any(values < 0):
                raise GraphError(f"node {label} must be non-negative")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes ``n = |V|``."""
        return len(self.nodes)

    def __len__(self) -> int:
        return self.size

    @property
    def cost_vector(self) -> np.ndarray:
        """Per-node compute costs ``C_i`` as a float vector (read-only copy)."""
        return self._cost_vec.copy()

    @property
    def memory_vector(self) -> np.ndarray:
        """Per-node output sizes ``M_i`` in bytes as a float vector."""
        return self._mem_vec.copy()

    def cost(self, i: int) -> float:
        """Cost ``C_i`` of computing node ``i``."""
        return float(self._cost_vec[i])

    def memory(self, i: int) -> int:
        """Output size ``M_i`` of node ``i`` in bytes."""
        return int(self._mem_vec[i])

    def predecessors(self, j: int) -> Tuple[int, ...]:
        """``DEPS[j]``: parents of node ``j``."""
        return self.deps[j]

    def successors(self, i: int) -> Tuple[int, ...]:
        """``USERS[i]``: children of node ``i``."""
        return self._users[i]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges ``(i, j)`` with ``i`` a parent of ``j``."""
        for j in range(self.size):
            for i in self.deps[j]:
                yield (i, j)

    @property
    def edge_list(self) -> List[Tuple[int, int]]:
        """All edges as a list (parent, child)."""
        return list(self.edges())

    @property
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(parents, children)`` index arrays over all edges, in :meth:`edges` order.

        The order is child-major (children are non-decreasing), matching the
        iteration order of :meth:`edges`.  Memoized on the instance: the
        dependency structure is immutable after ``__post_init__``, and the
        vectorized consumers (the compiled MILP formulation, the memory
        simulator, the schedule validator) index with these arrays on every
        call.
        """
        cached = self.__dict__.get("_edge_arrays")
        if cached is None:
            m = self.num_edges
            children = np.repeat(
                np.arange(self.size, dtype=np.int64),
                [len(self.deps[j]) for j in range(self.size)],
            )
            parents = np.fromiter(
                (i for j in range(self.size) for i in self.deps[j]),
                dtype=np.int64, count=m,
            )
            cached = (parents, children)
            self.__dict__["_edge_arrays"] = cached
        return cached

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.deps.values())

    @property
    def constant_overhead(self) -> int:
        """``M_input + 2 * M_param`` from paper Eq. (2)."""
        return int(self.input_memory + 2 * self.parameter_memory)

    # ------------------------------------------------------------------ #
    # Derived structural queries
    # ------------------------------------------------------------------ #
    def sources(self) -> List[int]:
        """Nodes with no parents (graph inputs such as the first layer)."""
        return [j for j in range(self.size) if not self.deps[j]]

    def sinks(self) -> List[int]:
        """Nodes with no children (typically the final gradient node)."""
        return [i for i in range(self.size) if not self._users[i]]

    @property
    def terminal_node(self) -> int:
        """The last node ``v_n`` in the topological order (paper §4.1)."""
        return self.size - 1

    def forward_nodes(self) -> List[int]:
        """Indices of nodes that belong to the forward pass."""
        return [i for i, v in enumerate(self.nodes) if not v.is_backward]

    def backward_nodes(self) -> List[int]:
        """Indices of nodes introduced by differentiation."""
        return [i for i, v in enumerate(self.nodes) if v.is_backward]

    def is_linear_chain(self) -> bool:
        """``True`` when the graph is a simple path ``v_0 -> v_1 -> ... -> v_{n-1}``."""
        for j in range(1, self.size):
            if self.deps[j] != (j - 1,):
                return False
        return not self.deps[0]

    # ------------------------------------------------------------------ #
    # Aggregate quantities used throughout the evaluation
    # ------------------------------------------------------------------ #
    def total_cost(self) -> float:
        """Cost of computing every node exactly once (the checkpoint-all cost)."""
        return float(self._cost_vec.sum())

    def forward_cost(self) -> float:
        """Total cost of the forward-pass nodes."""
        return float(sum(self._cost_vec[i] for i in self.forward_nodes()))

    def backward_cost(self) -> float:
        """Total cost of the backward-pass nodes."""
        return float(sum(self._cost_vec[i] for i in self.backward_nodes()))

    def total_activation_memory(self) -> int:
        """Sum of all node output sizes (memory to retain every value)."""
        return int(self._mem_vec.sum())

    def max_degree(self) -> int:
        """Maximum in-degree plus out-degree over all nodes."""
        if self.size == 0:
            return 0
        return max(len(self.deps[i]) + len(self._users[i]) for i in range(self.size))

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Return the graph as a :class:`networkx.DiGraph` with node attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i, node in enumerate(self.nodes):
            g.add_node(i, name=node.name, cost=node.cost, memory=node.memory,
                       is_backward=node.is_backward, layer_id=node.layer_id)
        g.add_edges_from(self.edges())
        return g

    def induced_subgraph(self, keep: Iterable[int]) -> "DFGraph":
        """Return the subgraph induced by ``keep`` with indices remapped.

        Edges between kept nodes are preserved; edges to dropped nodes are
        discarded.  The relative topological order of kept nodes is preserved.
        """
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        nodes = [self.nodes[i] for i in keep_sorted]
        deps = {
            remap[j]: [remap[i] for i in self.deps[j] if i in remap]
            for j in keep_sorted
        }
        return DFGraph(
            nodes=nodes,
            deps=deps,
            input_memory=self.input_memory,
            parameter_memory=self.parameter_memory,
            name=f"{self.name}-sub",
            meta=dict(self.meta),
        )

    def with_costs(self, costs: Sequence[float]) -> "DFGraph":
        """Return a copy of the graph with node costs replaced."""
        if len(costs) != self.size:
            raise GraphError("cost vector length must equal the number of nodes")
        nodes = [
            NodeInfo(v.name, float(c), v.memory, v.is_backward, v.layer_id)
            for v, c in zip(self.nodes, costs)
        ]
        return DFGraph(nodes, self.deps, self.input_memory, self.parameter_memory,
                       self.name, dict(self.meta))

    def with_memories(self, memories: Sequence[int]) -> "DFGraph":
        """Return a copy of the graph with node output sizes replaced."""
        if len(memories) != self.size:
            raise GraphError("memory vector length must equal the number of nodes")
        nodes = [
            NodeInfo(v.name, v.cost, int(m), v.is_backward, v.layer_id)
            for v, m in zip(self.nodes, memories)
        ]
        return DFGraph(nodes, self.deps, self.input_memory, self.parameter_memory,
                       self.name, dict(self.meta))

    def scaled(self, batch_factor: float) -> "DFGraph":
        """Scale activation memory and cost linearly with a batch-size factor.

        This is the transformation used by the maximum-batch-size experiment
        (paper Eq. 10): activation sizes scale linearly with the batch
        dimension, and so (to first order) do per-layer costs.  Parameter
        memory is batch independent and therefore left untouched.
        """
        nodes = [
            NodeInfo(v.name, v.cost * batch_factor, int(round(v.memory * batch_factor)),
                     v.is_backward, v.layer_id)
            for v in self.nodes
        ]
        return DFGraph(nodes, self.deps, int(round(self.input_memory * batch_factor)),
                       self.parameter_memory, self.name, dict(self.meta))

    # ------------------------------------------------------------------ #
    # Debug helpers
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line human readable description of the graph."""
        return (
            f"DFGraph(name={self.name!r}, n={self.size}, edges={self.num_edges}, "
            f"total_cost={self.total_cost():.3g}, "
            f"act_mem={self.total_activation_memory() / 2**20:.1f} MiB, "
            f"param_mem={self.parameter_memory / 2**20:.1f} MiB)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.summary()
