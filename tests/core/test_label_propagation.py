"""Tests for size-constrained label propagation (both modes).

Every call is :func:`repro.engine.run_sclp` on a ``LocalBackend``, with
the decisions of the pipeline's two uses: clustering starts from
singletons under ``U = max(max c(v), bound)`` in degree order,
refinement from a partition under the hard bound in random order; each
call draws its tie seed from its own generator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import LocalBackend, run_sclp
from repro.generators import planted_partition
from repro.graph import block_weights, from_edges, max_block_weight_bound, path_graph
from repro.metrics import edge_cut, modularity

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


def cluster(graph, bound, iterations, generator, **kwargs):
    """Clustering (coarsening use): singletons, ``U = max(max c(v), bound)``."""
    return run_sclp(
        LocalBackend(graph, generator), np.arange(graph.num_nodes),
        max(int(graph.vwgt.max(initial=1)), bound), iterations,
        tie_seed=int(generator.integers(0, 2**63 - 1)), **kwargs,
    )


def refine(graph, partition, lmax, iterations, generator):
    """Refinement (uncoarsening use): hard bound, random order, evictions."""
    return run_sclp(
        LocalBackend(graph, generator), partition, lmax, iterations,
        refine=True, ordering="random",
        tie_seed=int(generator.integers(0, 2**63 - 1)),
    )


class TestVisitOrder:
    # The degree and random orders themselves are pinned against the
    # node-at-a-time oracle (tests/core/test_lp_kernels.py), which orders
    # the nodes on its own.
    def test_unknown_order_rejected(self, two_triangles):
        with pytest.raises(ValueError, match="ordering"):
            cluster(two_triangles, 3, 1, rng(), ordering="bogus")


class TestClusteringMode:
    def test_two_triangles_collapse(self, two_triangles):
        labels = cluster(two_triangles, 3, 5, rng())
        # each triangle should merge; the bridge should not
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_unit_bound_freezes_everything(self, two_triangles):
        labels = cluster(two_triangles, 1, 5, rng())
        assert len(set(labels.tolist())) == 6  # singletons only

    def test_recovers_planted_communities(self):
        g, truth = planted_partition(4, 40, p_in=0.4, p_out=0.005, seed=1)
        labels = cluster(g, 40, 8, rng(1))
        assert modularity(g, labels) > 0.5
        # clusters should be (near-)pure: most co-clustered pairs share truth
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c)
            if members.size > 1:
                assert np.unique(truth[members]).size == 1

    def test_zero_iterations_is_identity(self, two_triangles):
        labels = cluster(two_triangles, 10, 0, rng())
        assert labels.tolist() == list(range(6))

    def test_deterministic_given_seed(self, karate):
        a = cluster(karate, 10, 4, rng(7))
        b = cluster(karate, 10, 4, rng(7))
        assert np.array_equal(a, b)

    @given(random_graphs(min_nodes=2), st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_size_constraint_respected(self, graph, bound, seed):
        labels = cluster(graph, bound, 4, rng(seed))
        effective = max(bound, int(graph.vwgt.max(initial=1)))
        weights = np.bincount(labels, weights=graph.vwgt)
        assert weights.max(initial=0) <= effective

    @given(random_graphs(min_nodes=2))
    def test_constraint_partition_never_spanned(self, graph):
        constraint = np.arange(graph.num_nodes) % 2
        labels = cluster(
            graph, graph.total_node_weight, 4, rng(3), constraint=constraint
        )
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c)
            assert np.unique(constraint[members]).size == 1


class TestRefinementMode:
    def test_improves_a_bad_bisection(self, two_triangles):
        bad = np.array([0, 1, 0, 1, 0, 1])  # cuts many edges
        # eps = 0 gives no slack for single-node moves; use 50 % so label
        # propagation can walk through intermediate states.
        lmax = max_block_weight_bound(two_triangles, 2, 0.5)
        refined = refine(two_triangles, bad, lmax, 8, rng(0))
        assert edge_cut(two_triangles, refined) == 1  # reaches the optimum

    def test_optimal_input_untouched(self, two_triangles):
        opt = np.array([0, 0, 0, 1, 1, 1])
        lmax = max_block_weight_bound(two_triangles, 2, 0.0)
        refined = refine(two_triangles, opt, lmax, 6, rng(0))
        assert edge_cut(two_triangles, refined) == 1

    def test_eviction_restores_balance(self):
        g = path_graph(8)
        lopsided = np.array([0, 0, 0, 0, 0, 0, 0, 1])  # block 0 overloaded
        lmax = max_block_weight_bound(g, 2, 0.0)  # 4
        refined = refine(g, lopsided, lmax, 8, rng(2))
        weights = block_weights(g, refined, 2)
        assert weights.max() <= lmax

    @given(random_graphs(min_nodes=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_never_worsens_balanced_input(self, graph, seed):
        generator = rng(seed)
        k = 2
        lmax = max_block_weight_bound(graph, k, 0.5)
        # build a balanced-by-construction input: alternate heavy/light
        order = np.argsort(-graph.vwgt, kind="stable")
        partition = np.zeros(graph.num_nodes, dtype=np.int64)
        loads = [0, 0]
        for v in order.tolist():
            b = int(loads[1] < loads[0])
            partition[v] = b
            loads[b] += int(graph.vwgt[v])
        if max(loads) > lmax:
            return  # extreme weights: cannot balance at all; skip
        before = edge_cut(graph, partition)
        refined = refine(graph, partition, lmax, 4, generator)
        assert edge_cut(graph, refined) <= before
        assert block_weights(graph, refined, k).max() <= lmax

    @given(random_graphs(min_nodes=4))
    def test_never_overloads_from_balanced_start(self, graph):
        k = 3
        lmax = max_block_weight_bound(graph, k, 1.0)
        partition = np.arange(graph.num_nodes) % k
        if block_weights(graph, partition, k).max() > lmax:
            return
        refined = refine(graph, partition, lmax, 4, rng(5))
        assert block_weights(graph, refined, k).max() <= lmax


class TestEngineEdgeCases:
    def test_empty_graph(self):
        from repro.graph import empty_graph

        empty = empty_graph(0)
        assert cluster(empty, 5, 3, rng()).size == 0
        assert refine(empty, np.empty(0, dtype=np.int64), 5, 3, rng()).size == 0

    def test_isolated_nodes_keep_labels(self):
        g = from_edges(4, [(0, 1)])
        labels = cluster(g, 5, 3, rng())
        assert labels[2] == 2 and labels[3] == 3

    def test_rejects_bad_label_shape(self, two_triangles):
        with pytest.raises(ValueError, match="every node"):
            run_sclp(LocalBackend(two_triangles, rng()), np.array([0, 1]), 5, 1)

    def test_weighted_edges_drive_choice(self):
        # node 1 between nodes 0 (weight 10) and 2 (weight 1): joins 0
        g = from_edges(3, [(0, 1), (1, 2)], weights=[10, 1])
        labels = cluster(g, 3, 3, rng(0))
        assert labels[0] == labels[1]
