"""Tests for heavy-edge matching coarsening."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.generators import load_instance, rgg
from repro.graph import check_graph, from_edges
from repro.kaffpa import heavy_edge_matching, match_and_contract

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMatchingValidity:
    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_mate_is_involution_over_edges(self, graph, seed):
        mate = heavy_edge_matching(graph, rng(seed))
        for v in range(graph.num_nodes):
            m = int(mate[v])
            assert mate[m] == v  # symmetric
            if m != v:
                assert graph.has_edge(v, m)  # matched along an actual edge

    def test_prefers_heavy_edges(self):
        # node 1's heaviest edge is to node 2; visiting order cannot change
        # that 1-2 is matched because 0's only option is 1.
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1, 100])
        counts = []
        for seed in range(10):
            mate = heavy_edge_matching(g, rng(seed))
            counts.append(int(mate[1]))
        assert 2 in counts  # the heavy edge gets matched in some order
        # whenever node 1 is free when visited first, it must pick node 2

    def test_weight_bound_blocks_heavy_pairs(self):
        g = from_edges(2, [(0, 1)], vwgt=np.array([5, 5]))
        mate = heavy_edge_matching(g, rng(0), max_node_weight=8)
        assert mate.tolist() == [0, 1]  # unmatched

    def test_constraint_blocks_cross_edges(self):
        g = from_edges(2, [(0, 1)])
        mate = heavy_edge_matching(g, rng(0), constraint=np.array([0, 1]))
        assert mate.tolist() == [0, 1]


class TestMatchingContraction:
    @given(random_graphs(min_nodes=2))
    def test_contraction_is_valid_and_bounded(self, graph):
        result = match_and_contract(graph, rng(1))
        check_graph(result.coarse)
        # a matching at best halves the node count
        assert result.coarse.num_nodes >= graph.num_nodes / 2
        assert result.coarse.total_node_weight == graph.total_node_weight

    def test_mesh_shrinks_near_half(self):
        g = rgg(10, seed=0)
        result = match_and_contract(g, rng(0))
        assert result.coarse.num_nodes < 0.62 * g.num_nodes

    def test_web_graph_stalls_vs_cluster_coarsening(self):
        """The paper's central contrast (Section V-B): matching barely
        shrinks a web graph while cluster contraction collapses it."""
        from repro.core import LocalVcycleBackend, fast_config
        from repro.engine.vcycle import run_coarsening
        from repro.graph import max_block_weight_bound

        g = load_instance("sk-2005")
        matched = match_and_contract(g, rng(0)).coarse
        matching_factor = matched.num_nodes / g.num_nodes

        config = fast_config(k=2, social=True)
        lmax = max_block_weight_bound(g, 2, config.epsilon)
        levels, _ = run_coarsening(LocalVcycleBackend(g, config, rng(0), lmax),
                                   config, lmax, 14.0)
        cluster_factor = levels[0].coarse.num_nodes / g.num_nodes

        assert matching_factor > 0.5  # stalls: less than 2x reduction
        assert cluster_factor < 0.1  # collapses: >10x in one step
