"""KaFFPa's compiled loops against their Python twins.

Greedy graph growing (whole graph and inside the node subsets of a
recursive bisection), greedy k-way boundary refinement and heavy-edge
matching run compiled; their Python twins (``python_twins.py`` here) are
the loops they replaced.  The contract is identity: the
same array out *and* the same ``rng`` state afterwards, on every graph —
and the graphs KaFFPa really gets are degenerate (contraction leaves
isolated coarse nodes wherever a whole component became one cluster),
so the strategy below
puts those cases in: no edges, isolated nodes, one node, disconnected
pieces, a node heavier than the target, ``k > n``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import native
from repro.graph import Graph, from_edges, max_block_weight_bound
from repro.kaffpa import (
    greedy_graph_growing_bisection,
    greedy_kway_refine,
    heavy_edge_matching,
    kaffpa_partition,
    recursive_bisection,
)
from repro.kaffpa.initial import _rows_sorted

from ..conftest import python_twins, random_graphs

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def coarsest_like_graphs(draw, max_nodes: int = 30) -> Graph:
    """A small random graph (density from 0, so edgeless and disconnected
    ones come up) with isolated nodes mixed in at random ids and,
    sometimes, one node heavier than everything else together."""
    base = draw(random_graphs(min_nodes=1, max_nodes=max_nodes))
    isolated = draw(st.integers(min_value=0, max_value=max_nodes))
    rng = np.random.default_rng(draw(SEEDS))
    n = base.num_nodes + isolated
    place = rng.permutation(n)[: base.num_nodes]  # new id of each base node
    vwgt = rng.integers(1, 9, size=n)
    vwgt[place] = base.vwgt
    if draw(st.booleans()):
        vwgt[int(rng.integers(0, n))] = int(vwgt.sum()) + 1
    triples = list(base.edges())
    return from_edges(
        n, [(int(place[u]), int(place[v])) for u, v, _ in triples],
        weights=[w for _, _, w in triples], vwgt=vwgt,
    )


ONE_NODE = from_edges(1, [])
EDGELESS = from_edges(7, [], vwgt=np.array([3, 1, 4, 1, 5, 9, 2]))
TWO_PIECES = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], weights=[2, 3, 3, 2])


def both(fn, seed: int):
    """``fn(rng)`` compiled and on the twins: ``(value, rng state)`` each."""
    outcomes = []
    for twins in (False, True):
        rng = np.random.default_rng(seed)
        with python_twins() if twins else contextlib.nullcontext():
            value = fn(rng)
        outcomes.append((value, rng.bit_generator.state))
    return outcomes


def assert_identical(fn, seed: int) -> np.ndarray:
    (got, got_state), (want, want_state) = both(fn, seed)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert got_state == want_state
    return got


class TestGrowing:
    @given(coarsest_like_graphs(), SEEDS, st.sampled_from([None, 0, 1, 3, 10**9]))
    @example(ONE_NODE, 0, None)
    @example(EDGELESS, 1, 9)
    @example(TWO_PIECES, 2, None)
    def test_whole_graph(self, graph, seed, divisor):
        # the default (half), more than there is, everything, a third, nothing
        total = graph.total_node_weight
        target = None if divisor is None else (total // divisor if divisor else total + 5)
        assert_identical(
            lambda rng: greedy_graph_growing_bisection(graph, rng, target), seed)

    @given(coarsest_like_graphs(), SEEDS, st.integers(min_value=1, max_value=40))
    @example(ONE_NODE, 0, 3)  # k > n
    @example(EDGELESS, 1, 4)
    @example(TWO_PIECES, 2, 8)
    def test_recursive_bisection_grows_inside_subsets(self, graph, seed, k):
        """No subgraph on one side, ``induced_subgraph`` per half on the
        other: same blocks, same draws."""
        part = assert_identical(lambda rng: recursive_bisection(graph, k, rng), seed)
        assert part.min(initial=0) >= 0 and part.max(initial=0) < k

    @given(random_graphs(min_nodes=3), SEEDS, st.integers(min_value=2, max_value=6))
    def test_unsorted_rows_take_the_subgraph_route(self, graph, seed, k):
        """Arcs in another order than by neighbour (a METIS file's, say):
        the subset kernel would meet neighbours in that order where the
        induced subgraph sorts them, so it must not run."""
        xadj = graph.xadj
        rows = [slice(xadj[v], xadj[v + 1]) for v in range(graph.num_nodes)]
        flipped = Graph(
            xadj, np.concatenate([graph.adjncy[r][::-1] for r in rows] or [graph.adjncy]),
            graph.vwgt,
            np.concatenate([graph.adjwgt[r][::-1] for r in rows] or [graph.adjwgt]),
        )
        assert _rows_sorted(graph)
        assert _rows_sorted(flipped) == (graph.degrees.max(initial=0) < 2)
        assert_identical(lambda rng: recursive_bisection(flipped, k, rng), seed)

    def test_fault_leaves_the_scratch_clean(self):
        graph = TWO_PIECES
        grow = native.GrowBisection(graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
        good = np.array([0, 1, 2, 4], dtype=np.int64)
        want = grow(good, 1, 3).copy()
        for bad in ([0, 1, 2, 6], [0, 1, 1, 2], [0, -1]):  # id >= n, repeated, < 0
            with pytest.raises(ValueError, match="a node id is outside its table"):
                grow(np.array(bad, dtype=np.int64), 0, 3)
            assert not grow._mark.any()
        with pytest.raises(ValueError, match="a node id"):
            grow(good, 4, 3)  # seed index outside members
        np.testing.assert_array_equal(grow(good, 1, 3), want)
        adjncy = graph.adjncy.copy()
        adjncy[0] = 6
        broken = native.GrowBisection(graph.xadj, adjncy, graph.adjwgt, graph.vwgt)
        with pytest.raises(ValueError, match="a neighbour id in adjncy"):
            broken(None, 0, 5)
        assert not broken._mark.any()
        with pytest.raises(TypeError, match="C-contiguous int64"):
            grow(good.astype(np.int32), 0, 3)


class TestKwayRefine:
    @given(coarsest_like_graphs(), SEEDS, st.integers(min_value=1, max_value=6),
           st.sampled_from([0.0, 0.03, 0.5, 10.0]), st.integers(min_value=0, max_value=3))
    @example(ONE_NODE, 0, 3, 0.03, 2)
    @example(EDGELESS, 1, 2, 0.0, 2)
    def test_same_partition_and_rng_state(self, graph, seed, k, epsilon, passes):
        start = np.random.default_rng(seed).integers(0, k, size=graph.num_nodes)
        lmax = max_block_weight_bound(graph, k, epsilon)  # 0.0: binding
        assert_identical(
            lambda rng: greedy_kway_refine(graph, start, k, lmax, rng, passes), seed)

    def test_a_float_bound_is_refused(self):
        """Block weights are integers and so is the bound they are held to."""
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)], vwgt=np.array([2, 1, 1, 2]))
        labels = np.array([0, 1, 0, 1], dtype=np.int64)
        weights = np.array([3, 3], dtype=np.int64)
        for bound in (3.0, 3.9, float("inf")):
            with pytest.raises(TypeError):
                native.kway_refine_pass(
                    graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
                    np.arange(4, dtype=np.int64), labels, weights, bound)
        assert native.kway_refine_pass(
            graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
            np.arange(4, dtype=np.int64), labels, weights, np.int64(4)) >= 0

    def test_block_id_outside_the_weight_table(self):
        graph = TWO_PIECES
        labels = np.array([0, 1, 0, 1, 0, 2], dtype=np.int64)
        before = labels.copy()
        with pytest.raises(ValueError, match="a block id or mapping entry"):
            native.kway_refine_pass(
                graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
                np.array([5, 4, 3, 2, 1, 0], dtype=np.int64), labels,
                np.array([3, 2], dtype=np.int64), 6)
        np.testing.assert_array_equal(labels, before)


class TestMatching:
    @given(coarsest_like_graphs(), SEEDS, st.sampled_from([None, 0, 4, 12, 10**6]),
           st.booleans())
    @example(ONE_NODE, 0, None, True)
    @example(EDGELESS, 1, 3, False)
    def test_same_mate_and_rng_state(self, graph, seed, bound, constrained):
        constraint = (
            np.random.default_rng(seed + 1).integers(0, 3, size=graph.num_nodes)
            if constrained else None
        )
        mate = assert_identical(
            lambda rng: heavy_edge_matching(graph, rng, bound, constraint), seed)
        assert np.array_equal(mate[mate], np.arange(graph.num_nodes))

    def test_neighbour_outside_the_graph(self):
        graph = TWO_PIECES
        adjncy = graph.adjncy.copy()
        adjncy[-1] = 6
        with pytest.raises(ValueError, match="a neighbour id in adjncy is outside"):
            native.match_heavy_edges(
                graph.xadj, adjncy, graph.adjwgt, graph.vwgt, None, None,
                np.arange(6, dtype=np.int64))
        with pytest.raises(ValueError, match="a node id is outside"):
            native.match_heavy_edges(
                graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt, None, None,
                np.array([0, 1, 2, 3, 4, 6], dtype=np.int64))


class TestDriver:
    @given(coarsest_like_graphs(max_nodes=40), SEEDS, st.integers(min_value=2, max_value=5),
           st.sampled_from(["plain", "constraint", "seed"]))
    def test_kaffpa_partition(self, graph, seed, k, mode):
        """The whole engine — matching, the stall decision, best-of
        recursive bisection, refinement on every level — with
        ``constraint`` and ``seed_partition`` given."""
        given_part = np.random.default_rng(seed + 2).integers(0, k, size=graph.num_nodes)
        lmax = max_block_weight_bound(graph, k, 0.03)
        kwargs = {
            "plain": {}, "constraint": {"constraint": given_part},
            "seed": {"seed_partition": given_part},
        }[mode]
        assert_identical(
            lambda rng: kaffpa_partition(graph, k, lmax, rng, **kwargs), seed)
