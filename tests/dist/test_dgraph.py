"""Tests for the distributed graph structure and halo exchange."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.generators import random_geometric_graph, web_copy_graph
from repro.graph import from_edges, path_graph

from ..conftest import random_graphs


class TestVtxdist:
    def test_balanced_split(self):
        assert balanced_vtxdist(10, 3).tolist() == [0, 4, 7, 10]

    def test_exact_split(self):
        assert balanced_vtxdist(8, 4).tolist() == [0, 2, 4, 6, 8]

    def test_more_parts_than_nodes(self):
        v = balanced_vtxdist(2, 4)
        assert v.tolist() == [0, 1, 2, 2, 2]


class TestLocalStructure:
    def test_path_split_in_two(self):
        g = path_graph(6)
        vtxdist = balanced_vtxdist(6, 2)
        d0 = DistGraph.from_global(g, vtxdist, 0)
        d1 = DistGraph.from_global(g, vtxdist, 1)
        assert d0.n_local == 3 and d1.n_local == 3
        # only the cut edge (2,3) creates one ghost on each side
        assert d0.n_ghost == 1 and d1.n_ghost == 1
        assert d0.ghost_global.tolist() == [3]
        assert d1.ghost_global.tolist() == [2]
        assert d0.ghost_owner.tolist() == [1]

    def test_id_round_trip(self):
        g = path_graph(9)
        d = DistGraph.from_global(g, balanced_vtxdist(9, 3), 1)
        locals_ = np.arange(d.n_total)
        assert np.array_equal(d.to_local(d.to_global(locals_)), locals_)

    def test_to_local_rejects_unknown(self):
        g = path_graph(9)
        d = DistGraph.from_global(g, balanced_vtxdist(9, 3), 0)
        with pytest.raises(KeyError):
            d.to_local(np.array([8]))  # node 8 is neither owned nor adjacent

    def test_owner_of(self):
        g = path_graph(9)
        d = DistGraph.from_global(g, balanced_vtxdist(9, 3), 0)
        assert d.owner_of(np.array([0, 3, 8])).tolist() == [0, 1, 2]

    def test_interface_mask(self):
        g = path_graph(6)
        d = DistGraph.from_global(g, balanced_vtxdist(6, 2), 0)
        assert d.interface_mask().tolist() == [False, False, True]

    def test_star_hub_has_all_ghosts(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        d = DistGraph.from_global(g, balanced_vtxdist(5, 5), 0)
        assert d.n_local == 1
        assert d.n_ghost == 4
        assert d.send_ranks.tolist() == [1, 2, 3, 4]

    @given(random_graphs(min_nodes=4, max_nodes=30), st.integers(min_value=2, max_value=5))
    def test_arc_partition_covers_graph(self, graph, parts):
        parts = min(parts, graph.num_nodes)
        vtxdist = balanced_vtxdist(graph.num_nodes, parts)
        total_arcs = 0
        total_vwgt = 0
        for rank in range(parts):
            d = DistGraph.from_global(graph, vtxdist, rank)
            total_arcs += d.num_arcs
            total_vwgt += int(d.vwgt.sum())
            # every arc resolves back to a valid global edge
            src_gl = d.to_global(d.arc_sources())
            dst_gl = d.to_global(d.adjncy)
            for s, t in zip(src_gl.tolist(), dst_gl.tolist()):
                assert graph.has_edge(s, t)
        assert total_arcs == graph.num_arcs
        assert total_vwgt == graph.total_node_weight


class TestHaloExchange:
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_ghost_values_match_owner_values(self, size):
        graph = random_geometric_graph(300, seed=1)
        vtxdist = balanced_vtxdist(graph.num_nodes, size)

        def program(comm):
            d = DistGraph.from_global(graph, vtxdist, comm.rank)
            values = np.full(d.n_total, -1, dtype=np.int64)
            # every owned node's value is a function of its global id
            values[: d.n_local] = (np.arange(d.n_local) + d.first) * 7
            d.halo_exchange(comm, values)
            expected = d.ghost_global * 7
            assert np.array_equal(values[d.n_local :], expected)
            return True

        result = run_spmd(size, program)
        assert all(result.per_rank)

    def test_gather_global_reassembles(self):
        graph = web_copy_graph(200, seed=2)
        vtxdist = balanced_vtxdist(graph.num_nodes, 4)

        def program(comm):
            d = DistGraph.from_global(graph, vtxdist, comm.rank)
            values = np.arange(d.n_local) + d.first
            return d.gather_global(comm, values)

        result = run_spmd(4, program)
        for view in result.per_rank:
            assert np.array_equal(view, np.arange(graph.num_nodes))

    def test_halo_exchange_counts_traffic(self):
        graph = path_graph(10)
        vtxdist = balanced_vtxdist(10, 2)

        def program(comm):
            d = DistGraph.from_global(graph, vtxdist, comm.rank)
            values = np.zeros(d.n_total)
            d.halo_exchange(comm, values)
            return comm.stats.bytes_sent

        result = run_spmd(2, program)
        assert all(b > 0 for b in result.per_rank)
