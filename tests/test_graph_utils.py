"""Tests for structural graph algorithms (ancestors, articulation points, generators)."""

import pytest

from repro.core import (
    ancestors,
    articulation_points,
    descendants,
    linear_graph,
    linearized_chain_edges,
    random_layered_dag,
    transitive_closure,
)
from repro.core.graph_utils import is_topological_order


class TestAncestry:
    def test_ancestors_of_chain(self):
        g = linear_graph(5)
        assert ancestors(g, 4) == {0, 1, 2, 3}
        assert ancestors(g, 0) == set()

    def test_descendants_of_chain(self):
        g = linear_graph(5)
        assert descendants(g, 0) == {1, 2, 3, 4}
        assert descendants(g, 4) == set()

    def test_ancestors_with_skip(self, diamond_graph):
        assert ancestors(diamond_graph, 3) == {0, 1, 2}
        assert ancestors(diamond_graph, 1) == {0}

    def test_transitive_closure_matches_ancestors(self, diamond_graph):
        closure = transitive_closure(diamond_graph)
        for node in range(diamond_graph.size):
            assert closure[node] == frozenset(ancestors(diamond_graph, node))

    def test_is_topological_order(self, diamond_graph):
        assert is_topological_order(diamond_graph)


class TestArticulationPoints:
    def test_chain_interior_nodes_are_articulation_points(self):
        g = linear_graph(6)
        assert articulation_points(g) == [1, 2, 3, 4]

    def test_skip_connection_removes_aps(self, diamond_graph):
        aps = articulation_points(diamond_graph)
        # Nodes 1 and 2 sit inside the residual block and are bypassed by the
        # 0 -> 3 skip edge, so they cannot be articulation points.
        assert 1 not in aps and 2 not in aps
        assert 3 in aps  # the join node disconnects the tail

    def test_restrict_to_subset(self, diamond_graph):
        aps = articulation_points(diamond_graph, restrict_to=[0, 1, 2, 3])
        assert 4 not in aps

    def test_two_node_graph_has_no_aps(self):
        g = linear_graph(2)
        assert articulation_points(g) == []


class TestGenerators:
    def test_linear_graph_structure(self):
        g = linear_graph(4, cost=2.0, memory=3)
        assert g.is_linear_chain()
        assert g.total_cost() == 8.0
        assert g.total_activation_memory() == 12

    def test_linear_graph_per_node_values(self):
        g = linear_graph(3, cost=[1, 2, 3], memory=[4, 5, 6])
        assert g.cost(2) == 3 and g.memory(0) == 4

    def test_linear_graph_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            linear_graph(3, cost=[1, 2])

    def test_linear_graph_rejects_empty(self):
        with pytest.raises(ValueError):
            linear_graph(0)

    def test_linearized_chain_edges(self, diamond_graph):
        assert linearized_chain_edges(diamond_graph) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_layered_dag_is_valid(self, seed):
        g = random_layered_dag(n_layers=5, width=3, seed=seed)
        assert is_topological_order(g)
        assert g.sinks() == [g.terminal_node]
        # connected: every non-source node has a parent
        assert all(g.predecessors(j) for j in range(1, g.size))

    def test_random_layered_dag_deterministic(self):
        a = random_layered_dag(4, 2, seed=3)
        b = random_layered_dag(4, 2, seed=3)
        assert a.size == b.size
        assert list(a.edges()) == list(b.edges())
        assert list(a.cost_vector) == list(b.cost_vector)
