"""Tests for partition-quality metrics."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import block_weights, complete_graph, from_edges, path_graph
from repro.metrics import (
    boundary_nodes,
    communication_volume,
    edge_cut,
    evaluate_partition,
    imbalance,
    modularity,
    overweight_cut,
)

from ..conftest import random_graphs


class TestEdgeCut:
    def test_bridge_cut(self, two_triangles):
        assert edge_cut(two_triangles, np.array([0, 0, 0, 1, 1, 1])) == 1

    def test_everything_in_one_block(self, two_triangles):
        assert edge_cut(two_triangles, np.zeros(6, dtype=np.int64)) == 0

    def test_weighted_cut(self, weighted_square):
        # blocks {0,1} vs {2,3}: cut edges (1,2)=2 and (3,0)=4
        assert edge_cut(weighted_square, np.array([0, 0, 1, 1])) == 6

    def test_complete_graph_bisection(self):
        g = complete_graph(6)
        assert edge_cut(g, np.array([0, 0, 0, 1, 1, 1])) == 9

    @given(random_graphs())
    def test_cut_bounded_by_total_weight(self, graph):
        rng = np.random.default_rng(0)
        partition = rng.integers(0, 4, size=graph.num_nodes)
        cut = edge_cut(graph, partition)
        assert 0 <= cut <= graph.total_edge_weight

    @given(random_graphs())
    def test_singleton_partition_cuts_everything(self, graph):
        partition = np.arange(graph.num_nodes)
        assert edge_cut(graph, partition) == graph.total_edge_weight


class TestImbalance:
    def test_perfect_balance(self, two_triangles):
        assert imbalance(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2) == 0.0

    def test_detects_overload(self, two_triangles):
        value = imbalance(two_triangles, np.array([0, 0, 0, 0, 0, 1]), 2)
        assert abs(value - (5 / 3 - 1)) < 1e-12

    def test_weighted(self, weighted_square):
        # c(V)=10, k=2, ceil=5; blocks {0,3}=5, {1,2}=5
        assert imbalance(weighted_square, np.array([0, 1, 1, 0]), 2) == 0.0


class TestOverweightCut:
    def test_balanced_beats_overweight_then_cut_decides(self, two_triangles):
        bridge = np.array([0, 0, 0, 1, 1, 1])  # cut 1, heaviest 3
        skewed = np.array([0, 0, 0, 0, 1, 1])  # cut 2, heaviest 4
        lopsided = np.array([0, 0, 0, 0, 0, 1])  # cut 2, heaviest 5
        assert overweight_cut(two_triangles, bridge, 2, lmax=3) == (0, 1)
        assert overweight_cut(two_triangles, skewed, 2, lmax=3) == (1, 2)
        assert overweight_cut(two_triangles, skewed, 2, lmax=4) == (0, 2)
        keys = [overweight_cut(two_triangles, p, 2, lmax=3)
                for p in (lopsided, bridge, skewed)]
        assert sorted(keys) == [(0, 1), (1, 2), (2, 2)]

    @given(random_graphs(), st.integers(1, 5))
    def test_equals_the_standalone_metrics(self, graph, k):
        partition = np.random.default_rng(1).integers(0, k, size=graph.num_nodes)
        heaviest = int(block_weights(graph, partition, k).max(initial=0))
        for lmax in (0, heaviest, heaviest + 1):
            assert overweight_cut(graph, partition, k, lmax) == (
                max(0, heaviest - lmax), edge_cut(graph, partition)
            )


class TestBoundaryAndVolume:
    def test_boundary_nodes_of_bridge(self, two_triangles):
        nodes = boundary_nodes(two_triangles, np.array([0, 0, 0, 1, 1, 1]))
        assert nodes.tolist() == [2, 3]

    def test_no_boundary_when_uncut(self, two_triangles):
        assert boundary_nodes(two_triangles, np.zeros(6, dtype=np.int64)).size == 0

    def test_comm_volume_of_bridge(self, two_triangles):
        assert communication_volume(two_triangles, np.array([0, 0, 0, 1, 1, 1])) == 2

    def test_comm_volume_counts_distinct_blocks(self):
        # star: hub 0 with 3 leaves in 3 different blocks
        g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        part = np.array([0, 1, 2, 2])
        # hub sees blocks {1, 2} -> 2; each leaf sees block 0 -> 1 each
        assert communication_volume(g, part) == 5

    def test_comm_volume_zero_when_uncut(self, two_triangles):
        assert communication_volume(two_triangles, np.zeros(6, dtype=np.int64)) == 0

    @given(random_graphs())
    def test_volume_at_most_arcs(self, graph):
        rng = np.random.default_rng(1)
        partition = rng.integers(0, 3, size=graph.num_nodes)
        assert communication_volume(graph, partition) <= graph.num_arcs


class TestEvaluatePartition:
    def test_bundle(self, two_triangles):
        q = evaluate_partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert q.cut == 1
        assert q.imbalance == 0.0
        assert q.boundary_node_count == 2
        assert q.block_weights == (3, 3)
        assert q.max_block_weight == 3
        assert "cut=1" in q.summary()

    @given(random_graphs(), st.integers(min_value=1, max_value=5))
    def test_bundle_equals_the_standalone_metrics(self, graph, k):
        # Low densities yield edgeless graphs and isolated nodes.
        partition = np.random.default_rng(2).integers(0, k, graph.num_nodes)
        q = evaluate_partition(graph, partition, k)
        assert q.cut == edge_cut(graph, partition)
        assert q.imbalance == imbalance(graph, partition, k)
        assert q.boundary_node_count == boundary_nodes(graph, partition).size
        assert q.communication_volume == communication_volume(graph, partition)
        assert q.block_weights == tuple(block_weights(graph, partition, k))


class TestModularity:
    def test_two_cliques_high_modularity(self, two_triangles):
        q = modularity(two_triangles, np.array([0, 0, 0, 1, 1, 1]))
        assert q > 0.3

    def test_singletons_nonpositive(self, two_triangles):
        q = modularity(two_triangles, np.arange(6))
        assert q <= 0.0

    def test_single_cluster_is_zero_ish(self, two_triangles):
        q = modularity(two_triangles, np.zeros(6, dtype=np.int64))
        assert abs(q) < 1e-9

    def test_empty_graph(self):
        from repro.graph import empty_graph

        assert modularity(empty_graph(3), np.zeros(3, dtype=np.int64)) == 0.0

    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_modularity_in_range(self, graph, seed):
        rng = np.random.default_rng(seed)
        clustering = rng.integers(0, max(1, graph.num_nodes // 2), size=graph.num_nodes)
        q = modularity(graph, clustering)
        assert -1.0 <= q <= 1.0
