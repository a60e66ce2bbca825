"""Unit and property tests for contraction / quotient graphs.

The key invariant (paper Section III): *a partition of the coarse graph
corresponds to a partition of the fine graph with the same cut and
balance*.  Equivalently, for any clustering and any block assignment of
the clusters, cutting the coarse graph equals cutting the fine graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import native
from repro.graph import (
    Graph,
    GraphError,
    check_graph,
    complete_graph,
    contract,
    from_edges,
    normalize_labels,
    quotient_graph,
)
from repro.metrics import edge_cut, evaluate_partition

from ..conftest import graphs_with_labels, random_graphs
from ..engine.numpy_kernels import group_arcs


class TestNormalizeLabels:
    def test_already_contiguous(self):
        normalized, count = normalize_labels(np.array([0, 1, 2, 1]))
        assert normalized.tolist() == [0, 1, 2, 1]
        assert count == 3

    def test_sparse_ids_compress(self):
        normalized, count = normalize_labels(np.array([100, 7, 100, 42]))
        assert count == 3
        assert normalized.tolist() == [2, 0, 2, 1]  # sorted-unique order

    def test_empty(self):
        normalized, count = normalize_labels(np.array([], dtype=np.int64))
        assert count == 0
        assert normalized.size == 0


class TestContract:
    def test_two_triangles_with_bridge(self, two_triangles):
        result = contract(two_triangles, np.array([0, 0, 0, 1, 1, 1]))
        coarse = result.coarse
        assert coarse.num_nodes == 2
        assert coarse.num_edges == 1
        assert coarse.vwgt.tolist() == [3, 3]
        assert coarse.adjwgt.tolist() == [1, 1]  # only the bridge survives

    def test_complete_graph_halves(self):
        g = complete_graph(6)
        coarse = contract(g, np.array([0, 0, 0, 1, 1, 1])).coarse
        assert coarse.num_nodes == 2
        # 3x3 unit edges run between the halves.
        assert coarse.adjwgt.tolist() == [9, 9]

    def test_contract_to_single_node(self, two_triangles):
        coarse = contract(two_triangles, np.zeros(6, dtype=np.int64)).coarse
        assert coarse.num_nodes == 1
        assert coarse.num_edges == 0
        assert coarse.total_node_weight == two_triangles.total_node_weight

    def test_identity_contraction(self, two_triangles):
        coarse = contract(two_triangles, np.arange(6)).coarse
        assert sorted(coarse.edges()) == sorted(two_triangles.edges())

    def test_weighted_edges_sum(self, weighted_square):
        # Merge {0,1} and {2,3}: cut edges are (1,2)=2 and (3,0)=4.
        coarse = contract(weighted_square, np.array([0, 0, 1, 1])).coarse
        assert coarse.adjwgt.tolist() == [6, 6]
        assert coarse.vwgt.tolist() == [3, 7]


class TestContractionInvariants:
    @given(graphs_with_labels())
    def test_coarse_graph_is_valid(self, graph_and_labels):
        graph, labels = graph_and_labels
        result = contract(graph, labels)
        check_graph(result.coarse)

    @given(graphs_with_labels())
    def test_node_weight_conserved(self, graph_and_labels):
        graph, labels = graph_and_labels
        result = contract(graph, labels)
        assert result.coarse.total_node_weight == graph.total_node_weight

    @given(graphs_with_labels())
    def test_mapping_is_onto_contiguous_range(self, graph_and_labels):
        graph, labels = graph_and_labels
        result = contract(graph, labels)
        mapping = result.fine_to_coarse
        if graph.num_nodes:
            assert set(mapping.tolist()) == set(range(result.coarse.num_nodes))

    @given(graphs_with_labels(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_cut_preserved_through_contraction(self, graph_and_labels, seed):
        """The paper's central coarsening invariant."""
        graph, labels = graph_and_labels
        result = contract(graph, labels)
        coarse, mapping = result.coarse, result.fine_to_coarse
        rng = np.random.default_rng(seed)
        coarse_partition = rng.integers(0, 3, size=coarse.num_nodes)
        fine_partition = coarse_partition[mapping] if graph.num_nodes else coarse_partition
        assert edge_cut(coarse, coarse_partition) == edge_cut(graph, fine_partition)

    @given(graphs_with_labels())
    def test_edge_weight_conserved_minus_internal(self, graph_and_labels):
        graph, labels = graph_and_labels
        result = contract(graph, labels)
        mapping = result.fine_to_coarse
        src = graph.arc_sources()
        internal = mapping[src] == mapping[graph.adjncy]
        internal_weight = int(graph.adjwgt[internal].sum()) // 2
        assert result.coarse.total_edge_weight == graph.total_edge_weight - internal_weight


def lexsort_contract(graph, labels):
    """The contraction as it was before ``scipy.sparse`` grouped the arcs:
    lexicographic sort by (src, dst) and a segmented sum.  Kept as the
    oracle for :func:`contract`'s CSR arrays."""
    mapping, n_coarse = normalize_labels(labels)
    vwgt = np.bincount(mapping, weights=graph.vwgt, minlength=n_coarse).astype(np.int64)
    src = mapping[graph.arc_sources()]
    dst = mapping[graph.adjncy]
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], graph.adjwgt[keep]
    xadj = np.zeros(n_coarse + 1, dtype=np.int64)
    if src.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return xadj, empty, vwgt, empty
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    boundary = np.empty(src.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(boundary)
    np.cumsum(np.bincount(src[starts], minlength=n_coarse), out=xadj[1:])
    return xadj, dst[starts], vwgt, np.add.reduceat(wgt, starts)


_PATH5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], weights=[3, 1, 4, 1])


class TestContractMatchesLexsortOracle:
    @given(graphs_with_labels())
    @example((from_edges(0, []), np.empty(0, dtype=np.int64)))  # empty graph
    @example((_PATH5, np.array([0, 0, 1, 1, 1])))  # one coarse edge
    @example((_PATH5, np.zeros(5, dtype=np.int64)))  # one cluster
    @example((_PATH5, np.array([0, 0, 0, 9, 9])))  # non-contiguous labels
    @example((from_edges(4, [(0, 1), (2, 3)]), np.array([5, 5, 2, 2])))  # no inter-cluster arc
    @example((_PATH5, np.array([7, 3, 7, 3, 100])))  # parallel arcs to sum
    def test_arrays_equal(self, graph_and_labels):
        graph, labels = graph_and_labels
        coarse = contract(graph, labels).coarse
        xadj, adjncy, vwgt, adjwgt = lexsort_contract(graph, labels)
        for got, want in (
            (coarse.xadj, xadj), (coarse.adjncy, adjncy),
            (coarse.vwgt, vwgt), (coarse.adjwgt, adjwgt),
        ):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestNativeBuildMatchesScipy:
    """``native.quotient_arcs`` against the scipy grouping of the
    relabelled arcs it replaced (the twin of ``native.group_arcs``, not
    the compiled grouping): the same three arrays.
    (:class:`TestContractMatchesLexsortOracle` holds ``contract`` to a
    third.)"""

    @staticmethod
    def assert_same(graph, mapping, n_coarse):
        got = native.quotient_arcs(graph.xadj, graph.adjncy, graph.adjwgt, mapping, n_coarse)
        want = group_arcs(
            n_coarse, mapping[graph.arc_sources()], mapping[graph.adjncy], graph.adjwgt)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @given(graphs_with_labels())
    @example((from_edges(0, []), np.empty(0, dtype=np.int64)))  # empty graph
    @example((from_edges(1, []), np.zeros(1, dtype=np.int64)))  # one node
    @example((from_edges(6, [(1, 4)]), np.array([3, 0, 3, 9, 1, 5])))  # isolated nodes
    @example((from_edges(4, [(0, 1), (2, 3)]), np.array([5, 5, 2, 2])))  # no coarse arc
    @example((_PATH5, np.array([7, 3, 7, 3, 100])))  # parallel arcs to sum
    def test_arrays_equal(self, graph_and_labels):
        graph, labels = graph_and_labels
        self.assert_same(graph, *normalize_labels(labels))

    def test_a_directed_csr_gives_the_quotient_of_its_transpose(self):
        """The fill reads each arc reversed, which is what orders the rows
        without a transposition: a one-directional CSR (arcs 0->1 w 2,
        0->2 w 5, 2->1 w 7, 3->0 w 1) comes back as the quotient of its
        transpose, weights kept."""
        directed = Graph(
            np.array([0, 2, 2, 3, 4]), np.array([2, 1, 1, 0]),
            np.ones(4, dtype=np.int64), np.array([5, 2, 7, 1]),
        )
        for mapping in ([0, 1, 2, 3], [1, 0, 0, 2], [3, 2, 1, 0]):
            mapping = np.array(mapping, dtype=np.int64)
            got = native.quotient_arcs(
                directed.xadj, directed.adjncy, directed.adjwgt, mapping, 4)
            want = group_arcs(
                4, mapping[directed.adjncy], mapping[directed.arc_sources()],
                directed.adjwgt)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, w)

    def test_empty_blocks_become_isolated_coarse_nodes(self):
        # a mapping that skips ids (never produced by normalize_labels)
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        self.assert_same(graph, np.array([4, 4, 0, 2], dtype=np.int64), 6)

    def test_entry_outside_its_table(self):
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        mapping = np.array([0, 1, 1, 2], dtype=np.int64)
        for bad in (3, -1):
            with pytest.raises(ValueError, match="a block id or mapping entry is outside"):
                native.quotient_arcs(
                    graph.xadj, graph.adjncy, graph.adjwgt,
                    np.array([0, 1, bad, 2], dtype=np.int64), 3)
        adjncy = graph.adjncy.copy()
        adjncy[2] = 4
        with pytest.raises(ValueError, match="a neighbour id in adjncy is outside"):
            native.quotient_arcs(graph.xadj, adjncy, graph.adjwgt, mapping, 3)
        xadj = graph.xadj.copy()
        xadj[2] = 7
        with pytest.raises(ValueError, match="an arc range in xadj is outside"):
            native.quotient_arcs(xadj, graph.adjncy, graph.adjwgt, mapping, 3)
        with pytest.raises(TypeError, match="C-contiguous int64 ndarray of 4 entries"):
            native.quotient_arcs(graph.xadj, graph.adjncy, graph.adjwgt, mapping[:3], 3)

    def test_fill_refuses_a_row_table_it_cannot_fill(self):
        """The fill checks the row table it is handed (the binding always
        hands it the count's): a row it would overrun, a row it leaves
        unfilled and a total that is not the arc count are refused."""
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        mapping = np.array([0, 1, 1, 2], dtype=np.int64)
        lib = native._kernels()
        start, xadj_c = np.empty(4, dtype=np.int64), np.empty(4, dtype=np.int64)
        stamp, cur = np.empty(3, dtype=np.int64), np.empty(3, dtype=np.int64)
        order = np.empty(4, dtype=np.int64)
        csr = (4, graph.num_arcs, graph.xadj.ctypes.data, graph.adjncy.ctypes.data)
        count = lib.quotient_count(*csr, mapping.ctypes.data, 3, start.ctypes.data,
                                   order.ctypes.data, stamp.ctypes.data, xadj_c.ctypes.data)
        assert (count, xadj_c.tolist()) == (4, [0, 1, 3, 4])
        for rows, n_arcs_c in (([0, 0, 3, 4], 4), ([0, 2, 4, 5], 5), ([0, 1, 3, 4], 5)):
            rows = np.array(rows, dtype=np.int64)
            adjncy_c, adjwgt_c = np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64)
            status = lib.quotient_fill(
                *csr, graph.adjwgt.ctypes.data, mapping.ctypes.data, 3,
                start.ctypes.data, order.ctypes.data, stamp.ctypes.data,
                cur.ctypes.data, n_arcs_c, rows.ctypes.data, adjncy_c.ctypes.data,
                adjwgt_c.ctypes.data)
            assert str(native._fault("quotient build", status)) == (
                "native quotient build: a row of the scratch sized for it is outside its table")


class TestQuotientGraph:
    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_k_names_the_node(self, two_triangles, bad):
        """The evaluator's error, not the kernel's bare ``ValueError``."""
        partition = np.array([0, 0, 1, bad, 1, bad])
        with pytest.raises(
            GraphError,
            match=rf"^node 3 has label {bad}, outside \[0, k\) for k = 2$",
        ):
            quotient_graph(two_triangles, partition, k=2)
        with pytest.raises(GraphError, match=rf"^node 3 has label {bad},"):
            evaluate_partition(two_triangles, partition, 2)

    def test_quotient_keeps_empty_blocks(self, two_triangles):
        partition = np.array([0, 0, 0, 2, 2, 2])  # block 1 unused
        q = quotient_graph(two_triangles, partition, k=3)
        assert q.num_nodes == 3
        assert q.vwgt.tolist() == [3, 0, 3]
        assert q.degree(1) == 0

    def test_quotient_of_contiguous_partition(self, two_triangles):
        q = quotient_graph(two_triangles, np.array([0, 0, 0, 1, 1, 1]), k=2)
        assert q.num_nodes == 2
        assert q.adjwgt.tolist() == [1, 1]

    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_quotient_edge_weight_equals_cut(self, graph, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        partition = rng.integers(0, k, size=graph.num_nodes)
        q = quotient_graph(graph, partition, k=k)
        assert q.num_nodes == k
        assert q.total_edge_weight == edge_cut(graph, partition)
