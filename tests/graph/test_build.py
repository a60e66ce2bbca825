"""Unit tests for graph builders."""

from __future__ import annotations

import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.graph import (
    GraphError,
    check_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_adjacency,
    from_coo,
    from_edges,
    from_networkx,
    from_scipy,
    path_graph,
    star_graph,
    to_networkx,
    to_scipy,
)
from repro import native
from repro.graph.build import group_arcs

from ..conftest import python_twins, random_graphs
from ..engine import numpy_kernels


class TestFromEdges:
    def test_simple_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3
        check_graph(g)

    def test_duplicate_edges_merge_weights(self):
        g = from_edges(2, [(0, 1), (0, 1), (1, 0)], weights=[2, 3, 5])
        assert g.num_edges == 1
        assert g.incident_weights(0).tolist() == [10]

    def test_self_loops_dropped(self):
        g = from_edges(3, [(0, 0), (1, 2)])
        assert g.num_edges == 1
        check_graph(g)

    def test_empty_edge_list(self):
        g = from_edges(4, [])
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            from_edges(3, np.array([[0, 1, 2]]))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="parallel"):
            from_edges(3, [(0, 1)], weights=[1, 2])

    def test_node_weights_kept(self):
        g = from_edges(2, [(0, 1)], vwgt=np.array([7, 9]))
        assert g.vwgt.tolist() == [7, 9]

    @pytest.mark.parametrize(
        ("edges", "first_bad"),
        [([(0, 1), (1, 3), (4, 0)], "arc 1 (1 -> 3)"), ([(0, 1), (-1, 2)], "arc 1 (-1 -> 2)")],
    )
    def test_rejects_endpoints_outside_the_graph(self, edges, first_bad):
        message = re.escape(f"{first_bad} has an endpoint outside [0, 3)")
        with pytest.raises(GraphError, match=message):
            from_edges(3, edges)
        rows, cols = np.array(edges).T
        with pytest.raises(GraphError, match=message):
            from_coo(3, rows, cols)


def dict_grouping(n, src, dst, wgt):
    """Canonical CSR the plain way: a dict of summed arc weights per
    (source, neighbour), self-loops skipped, read out row by row."""
    summed: dict[tuple[int, int], int] = {}
    for u, v, w in zip(src, dst, wgt):
        if u != v:
            summed[(u, v)] = summed.get((u, v), 0) + w
    xadj, adjncy, adjwgt = [0], [], []
    for u in range(n):
        row = sorted((v, w) for (s, v), w in summed.items() if s == u)
        adjncy += [v for v, _ in row]
        adjwgt += [w for _, w in row]
        xadj.append(len(adjncy))
    return xadj, adjncy, adjwgt


@st.composite
def arc_lists(draw):
    """``n`` and an arc list over it: self-loops, parallel arcs in both
    orientations and isolated nodes all come up."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return 0, [], [], []
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9))
    arcs = draw(st.lists(arc, max_size=40))
    mirrored = draw(st.lists(st.sampled_from(arcs), max_size=10)) if arcs else []
    arcs = arcs + [(v, u, w) for u, v, w in mirrored]
    src, dst, wgt = (list(column) for column in zip(*arcs)) if arcs else ([], [], [])
    return n, src, dst, wgt


class TestGroupArcs:
    @given(arc_lists())
    @example((0, [], [], []))  # no nodes
    @example((1, [], [], []))  # one node, no arcs
    @example((1, [0, 0], [0, 0], [3, 4]))  # only self-loops
    @example((3, [0, 2, 2, 0], [2, 0, 0, 2], [1, 2, 3, 4]))  # duplicates, both orientations
    @example((5, [3, 1], [1, 3], [6, 6]))  # isolated nodes 0, 2, 4
    def test_equals_the_dict_grouping(self, arcs):
        n, src, dst, wgt = arcs
        got = group_arcs(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                         np.array(wgt, dtype=np.int64))
        for g, w in zip(got, dict_grouping(n, src, dst, wgt)):
            assert g.dtype == np.int64
            assert g.tolist() == w


@st.composite
def raw_arc_lists(draw):
    """``n`` and an int64 arc list over it, as the compiled grouping and
    its scipy twin take them: self-loops, an edge in both orientations,
    parallel arcs whose weights sum to zero, isolated nodes, ``n = 0``,
    no arcs, and sometimes one endpoint outside ``[0, n)``."""
    n = draw(st.integers(min_value=0, max_value=12))
    node = st.integers(0, max(n - 1, 0))
    arcs = draw(st.lists(st.tuples(node, node, st.integers(-9, 9)), max_size=40)) if n else []
    mirrored = draw(st.lists(st.sampled_from(arcs), max_size=10)) if arcs else []
    arcs += [(v, u, -w if draw(st.booleans()) else w) for u, v, w in mirrored]
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from([-1, n, n + 5]))
        at = draw(st.integers(0, len(arcs)))
        end = draw(st.integers(0, 1))
        arcs.insert(at, (bad, 0, 1) if end == 0 else (0, bad, 1))
    src, dst, wgt = (np.array(column, dtype=np.int64).reshape(-1)
                     for column in (zip(*arcs) if arcs else ([], [], [])))
    return n, src, dst, wgt


class TestCompiledGroupingMatchesScipyTwin:
    """``native.group_arcs`` against scipy's COO -> CSR (the twin in
    ``tests/engine/numpy_kernels.py``): the same three arrays, or the same
    ``GraphError`` text from :func:`group_arcs`."""

    @given(raw_arc_lists())
    @example((0, *(np.empty(0, dtype=np.int64),) * 3))  # n = 0
    @example((3, *(np.empty(0, dtype=np.int64),) * 3))  # no arcs
    @example((2, np.array([0, 1]), np.array([0, 1]), np.array([5, 6])))  # self-loops only
    @example((3, np.array([0, 2, 0]), np.array([2, 0, 2]), np.array([4, 1, -4])))  # zero sum
    @example((3, np.array([0, 1, 3]), np.array([1, 0, 0]), np.array([1, 1, 1])))  # outside
    @example((3, np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]), np.array([1, 2, 3, 4])))  # rows ordered
    @example((3, np.array([0, 0, 0, 1]), np.array([1, 1, 2, 2]), np.array([1, 2, 3, 4])))  # ordered, merged
    def test_same_arrays_or_same_error(self, arcs):
        n, src, dst, wgt = arcs
        outcomes = []
        for kernel in (native.group_arcs, numpy_kernels.group_arcs):
            try:
                outcomes.append(kernel(n, src, dst, wgt))
            except ValueError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want and "has an endpoint outside" in want
            for bound in (False, True):
                with python_twins() if bound else contextlib.nullcontext():
                    with pytest.raises(GraphError) as caught:
                        group_arcs(n, src, dst, wgt)
                assert str(caught.value) == want
            return
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @given(raw_arc_lists())
    @example((3, np.array([0, 1, 3]), np.array([1, 0, 0]), np.array([1, 1, 1])))  # outside
    def test_mirror_groups_the_list_and_its_reverse(self, arcs):
        """``mirror`` (``from_coo``'s grouping) equals grouping the list
        concatenated with its reverse, compiled and twin, or fails with
        the same text naming the same arc."""
        n, src, dst, wgt = arcs
        both = (np.concatenate((src, dst)), np.concatenate((dst, src)),
                np.concatenate((wgt, wgt)))
        outcomes = []
        for call in (lambda: native.group_arcs(n, src, dst, wgt, mirror=True),
                     lambda: numpy_kernels.group_arcs(n, src, dst, wgt, mirror=True),
                     lambda: native.group_arcs(n, *both)):
            try:
                outcomes.append([a.tolist() for a in call()])
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_kept_zero_sums_are_dropped_by_the_builders(self):
        xadj, adjncy, adjwgt = group_arcs(
            2, np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([3, -3, 2]))
        assert (xadj.tolist(), adjncy.tolist(), adjwgt.tolist()) == ([0, 1, 2], [1, 0], [0, 2])
        assert from_coo(2, [0, 0], [1, 1], [3, -3]).num_edges == 0

    def test_arrays_outside_the_kernels_contract(self):
        with pytest.raises(TypeError, match="C-contiguous int64 ndarray of 2 entries"):
            native.group_arcs(3, np.array([0, 1]), np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="parallel 1-d arrays"):
            group_arcs(3, [0, 1], [1, 2], [1])

    def test_inconsistent_tables_are_refused(self):
        """The merge and order passes check the row table they are handed
        (the binding always hands them a consistent one)."""
        lib = native._kernels()
        src, dst, wgt = (np.array(a, dtype=np.int64) for a in ([0, 1], [1, 0], [1, 1]))
        start = np.array([0, 1, 3], dtype=np.int64)  # claims 3 arcs for 2
        col, val, stamp, slot = (np.zeros(2, dtype=np.int64) for _ in range(4))
        ordered = np.zeros(1, dtype=np.int64)
        status = lib.group_merge(2, 2, src.ctypes.data, dst.ctypes.data,
                                 wgt.ctypes.data, 0, start.ctypes.data, 2,
                                 col.ctypes.data, val.ctypes.data,
                                 stamp.ctypes.data, slot.ctypes.data,
                                 ordered.ctypes.data)
        assert str(native._fault("arc grouping", status)) == (
            "native arc grouping: a row of the scratch sized for it is outside its table")
        start = np.array([0, 1, 2], dtype=np.int64)
        col = np.array([1, 7], dtype=np.int64)  # a neighbour outside [0, 2)
        out = [np.zeros(size, dtype=np.int64) for size in (3, 2, 2, 3, 2, 2)]
        status = lib.group_order(2, start.ctypes.data, 2, col.ctypes.data,
                                 val.ctypes.data, *(a.ctypes.data for a in out))
        assert "a neighbour id in adjncy" in str(native._fault("arc grouping", status))


class TestScipyRoundTrip:
    def test_round_trip_preserves_graph(self, two_triangles):
        again = from_scipy(to_scipy(two_triangles))
        assert sorted(again.edges()) == sorted(two_triangles.edges())

    def test_from_scipy_drops_diagonal(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.array([[5, 1], [1, 0]]))
        g = from_scipy(mat)
        assert g.num_edges == 1
        check_graph(g)


class TestNetworkxRoundTrip:
    def test_round_trip(self, karate):
        nx_g = to_networkx(karate)
        again = from_networkx(nx_g)
        assert again.num_nodes == karate.num_nodes
        assert sorted(again.edges()) == sorted(karate.edges())

    def test_weights_survive(self):
        import networkx as nx

        nx_g = nx.Graph()
        nx_g.add_edge(0, 1, weight=4)
        g = from_networkx(nx_g)
        assert g.incident_weights(0).tolist() == [4]


class TestTinyGraphs:
    def test_empty(self):
        g = empty_graph(5)
        assert g.num_nodes == 5 and g.num_edges == 0

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert np.all(g.degrees == 4)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert np.all(g.degrees == 2)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.num_edges == 4

    def test_from_adjacency(self):
        g = from_adjacency([[1, 2], [0, 2], [0, 1]])
        assert g.num_edges == 3


class TestProperties:
    @given(random_graphs())
    def test_builders_always_produce_valid_graphs(self, graph):
        check_graph(graph)

    @given(random_graphs())
    def test_arc_count_is_even(self, graph):
        assert graph.num_arcs % 2 == 0

    @given(random_graphs())
    def test_coo_round_trip(self, graph):
        src = graph.arc_sources()
        mask = src < graph.adjncy
        again = from_coo(
            graph.num_nodes,
            src[mask],
            graph.adjncy[mask],
            graph.adjwgt[mask],
            vwgt=graph.vwgt,
        )
        assert sorted(again.edges()) == sorted(graph.edges())
