"""Tests for the distributed graph structure and halo exchange."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import native
from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.generators import random_geometric_graph, web_copy_graph
from repro.graph import from_edges, path_graph

from ..conftest import python_twins, random_graphs
from ..engine import numpy_kernels


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
        with pytest.raises(KeyError, match="global id 8 is neither owned nor ghosted on rank 0"):
            d.to_local(np.array([8]))  # node 8 is neither owned nor adjacent

    def test_to_local_rejects_unknown_on_a_rank_without_ghosts(self):
        d = DistGraph.from_global(from_edges(4, [(0, 1), (2, 3)]), balanced_vtxdist(4, 2), 0)
        assert d.n_ghost == 0
        with pytest.raises(KeyError, match="global id 3 is neither owned nor ghosted on rank 0"):
            d.to_local(np.array([3]))
        assert d.to_local(np.array([1, 0])).tolist() == [1, 0]

    def test_owner_of(self):
        g = path_graph(9)
        d = DistGraph.from_global(g, balanced_vtxdist(9, 3), 0)
        assert d.owner_of(np.array([0, 3, 8])).tolist() == [0, 1, 2]

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


@st.composite
def distributed_graphs(draw):
    """A small graph and a ``vtxdist`` over 1-5 PEs: balanced, or cut at
    drawn points, so that ``n < p``, empty ranges between full ones,
    ranks without ghosts and ranks without arcs all come up."""
    graph = draw(random_graphs(min_nodes=0, max_nodes=24))
    p = draw(st.integers(min_value=1, max_value=5))
    n = graph.num_nodes
    if draw(st.booleans()):
        vtxdist = balanced_vtxdist(n, p)
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
        vtxdist = np.array([0, *cuts, n], dtype=np.int64)
    return graph, vtxdist


def rank_rows(graph, vtxdist, rank):
    """PE ``rank``'s ``xadj`` (from 0) and global arc targets."""
    first, last = int(vtxdist[rank]), int(vtxdist[rank + 1])
    lo, hi = int(graph.xadj[first]), int(graph.xadj[last])
    return graph.xadj[first : last + 1] - lo, np.ascontiguousarray(graph.adjncy[lo:hi])


class TestGhostLayoutMatchesNumpyTwin:
    """``native.ghost_layout`` against the NumPy id mapping it replaced
    (the twin in ``tests/engine/numpy_kernels.py``), on every rank."""

    @given(distributed_graphs())
    def test_same_layout_and_same_dgraph(self, case):
        graph, vtxdist = case
        for rank in range(vtxdist.size - 1):
            got = native.ghost_layout(vtxdist, rank, *rank_rows(graph, vtxdist, rank))
            want = numpy_kernels.ghost_layout(vtxdist, rank, *rank_rows(graph, vtxdist, rank))
            for name, g, w in zip(native.GhostLayout._fields, got, want):
                assert g.dtype == w.dtype, name
                np.testing.assert_array_equal(g, w, err_msg=name)
            compiled = DistGraph.from_global(graph, vtxdist, rank)
            with python_twins():
                twin = DistGraph.from_global(graph, vtxdist, rank)
            for name in ("adjncy", "ghost_global", "ghost_owner", "send_ranks",
                         "ghost_xadj", "ghost_src"):
                np.testing.assert_array_equal(
                    getattr(compiled, name), getattr(twin, name), err_msg=name)
            for name in ("send_nodes", "recv_ghosts"):
                assert [a.tolist() for a in getattr(compiled, name)] == [
                    a.tolist() for a in getattr(twin, name)], name

    def test_ranks_without_ghosts_or_arcs(self):
        graph = from_edges(6, [(0, 1), (4, 5)])  # nodes 2 and 3 isolated
        vtxdist = np.array([0, 2, 2, 4, 6], dtype=np.int64)  # rank 1 owns nothing
        for rank in range(4):
            d = DistGraph.from_global(graph, vtxdist, rank)
            assert d.n_ghost == 0 and d.send_ranks.size == 0
            assert d.ghost_xadj.tolist() == [0]

    def test_the_layout_refuses_writes(self):
        d = DistGraph.from_global(path_graph(6), balanced_vtxdist(6, 2), 0)
        for name in ("ghost_xadj", "ghost_src"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(d, name)[0] = 0

    @pytest.mark.parametrize(("fault", "what"), [
        ("rank", "a block id or mapping entry"),
        ("vtxdist descends", "a block id or mapping entry"),
        ("vtxdist from 1", "a block id or mapping entry"),
        ("n_local", "a block id or mapping entry"),
        ("xadj", "an arc range in xadj"),
        ("target", "a neighbour id in adjncy"),
    ])
    def test_every_fault_is_named(self, fault, what):
        graph = path_graph(6)
        vtxdist = balanced_vtxdist(6, 2)
        xadj, dst = rank_rows(graph, vtxdist, 0)
        rank = 0
        if fault == "rank":
            rank = 2
        elif fault == "vtxdist descends":
            vtxdist = np.array([0, 4, 3, 6], dtype=np.int64)
        elif fault == "vtxdist from 1":
            vtxdist = np.array([1, 3, 6], dtype=np.int64)
        elif fault == "n_local":
            vtxdist = np.array([0, 2, 6], dtype=np.int64)
        elif fault == "xadj":
            xadj = xadj.copy()
            xadj[2] = xadj[3] + 1
        else:
            dst = dst.copy()
            dst[-1] = 6
        with pytest.raises(ValueError, match=f"native ghost layout: {what} is outside its table"):
            native.ghost_layout(vtxdist, rank, xadj, dst)


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
