"""Tests for graph operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import (
    check_graph,
    connected_components,
    degree_statistics,
    from_edges,
    induced_subgraph,
    is_connected,
    largest_component,
    path_graph,
    permute,
)
from repro.graph.ops import average_clustering_sample

from ..conftest import random_graphs


class TestSubgraph:
    def test_induced_subgraph_of_triangle_side(self, two_triangles):
        sub, original = induced_subgraph(two_triangles, np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 3
        assert original.tolist() == [0, 1, 2]
        check_graph(sub)

    def test_subgraph_drops_crossing_edges(self, two_triangles):
        sub, _ = induced_subgraph(two_triangles, np.array([2, 3]))
        assert sub.num_edges == 1  # only the bridge, renumbered

    def test_subgraph_keeps_node_weights(self, weighted_square):
        sub, _ = induced_subgraph(weighted_square, np.array([3, 1]))
        assert sub.vwgt.tolist() == [4, 2]

    @pytest.mark.parametrize(
        ("nodes", "message"),
        [
            ([0, 0, 1], "node id 0 is given twice"),
            ([2, 1, 3, 1], "node id 1 is given twice"),
            ([-1, 0], r"node id -1 is outside \[0, 4\)"),
            ([0, 4], r"node id 4 is outside \[0, 4\)"),
        ],
    )
    def test_rejects_repeated_and_outside_ids(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            induced_subgraph(path_graph(4), np.array(nodes))

    @given(random_graphs(min_nodes=3), st.integers(min_value=0, max_value=2**31 - 1))
    def test_subgraph_is_valid(self, graph, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, graph.num_nodes + 1))
        nodes = rng.choice(graph.num_nodes, size=size, replace=False)
        sub, _ = induced_subgraph(graph, nodes)
        check_graph(sub)
        assert sub.num_nodes == size


class TestComponents:
    def test_two_components(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        count, labels = connected_components(g)
        assert count == 3  # {0,1}, {2,3}, {4}
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]

    def test_is_connected(self, two_triangles):
        assert is_connected(two_triangles)
        assert not is_connected(from_edges(4, [(0, 1)]))

    def test_largest_component(self):
        g = from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4)])
        comp, nodes = largest_component(g)
        assert comp.num_nodes == 3
        assert sorted(nodes.tolist()) == [0, 1, 2]

    def test_largest_component_of_connected_graph_is_identity(self, two_triangles):
        comp, nodes = largest_component(two_triangles)
        assert comp is two_triangles
        assert nodes.tolist() == list(range(6))


class TestPermute:
    def test_reversal_keeps_structure(self, two_triangles):
        order = np.arange(5, -1, -1)
        permuted, old_to_new = permute(two_triangles, order)
        check_graph(permuted)
        assert permuted.num_edges == two_triangles.num_edges
        # edge (2,3) becomes (old_to_new[2], old_to_new[3]) = (3, 2)
        assert permuted.has_edge(3, 2)

    def test_rejects_non_permutation(self, two_triangles):
        with pytest.raises(ValueError, match="permutation"):
            permute(two_triangles, np.array([0, 0, 1, 2, 3, 4]))

    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_permute_preserves_degree_multiset(self, graph, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(graph.num_nodes)
        permuted, _ = permute(graph, order)
        assert sorted(permuted.degrees.tolist()) == sorted(graph.degrees.tolist())
        assert permuted.total_edge_weight == graph.total_edge_weight


class TestStatistics:
    def test_degree_statistics_of_path(self):
        stats = degree_statistics(path_graph(10))
        assert stats.min_degree == 1
        assert stats.max_degree == 2
        assert 1.5 < stats.mean_degree < 2.0

    def test_degree_statistics_empty(self):
        from repro.graph import empty_graph

        stats = degree_statistics(empty_graph(0))
        assert stats.max_degree == 0

    def test_clustering_of_triangle_is_one(self):
        from repro.graph import complete_graph

        assert average_clustering_sample(complete_graph(3)) == 1.0

    def test_clustering_of_path_is_zero(self):
        assert average_clustering_sample(path_graph(10)) == 0.0

    def test_karate_clusters_strongly(self, karate):
        assert average_clustering_sample(karate) > 0.4
