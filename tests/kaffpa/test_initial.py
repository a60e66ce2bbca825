"""Tests for the initial-partitioning algorithms."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given

from repro.generators import planted_partition, rgg
from repro.graph import block_weights, from_edges, max_block_weight_bound, path_graph
from repro.kaffpa import best_of, greedy_graph_growing_bisection, recursive_bisection
from repro.metrics import edge_cut, imbalance

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGreedyGrowing:
    def test_path_bisection_is_contiguous_cut(self):
        g = path_graph(10)
        part = greedy_graph_growing_bisection(g, rng(3))
        assert edge_cut(g, part) <= 2  # a grown region cuts the path few times
        assert abs(block_weights(g, part, 2)[0] - 5) <= 1

    def test_respects_target_weight(self):
        g = path_graph(20)
        part = greedy_graph_growing_bisection(g, rng(1), target_weight=5)
        assert block_weights(g, part, 2)[0] <= 5

    @given(random_graphs(min_nodes=2))
    def test_produces_two_blocks(self, graph):
        part = greedy_graph_growing_bisection(graph, rng(2))
        assert set(np.unique(part)).issubset({0, 1})


def property_reading_growing(graph, rng, target_weight=None):
    """:func:`greedy_graph_growing_bisection` as it read the graph before
    the arrays were hoisted out of the loop (``graph.vwgt[v]`` and
    ``neighbors(v)`` per visit): the oracle for RNG draws, heap order and
    the returned partition."""
    n = graph.num_nodes
    if target_weight is None:
        target_weight = graph.total_node_weight // 2
    partition = np.ones(n, dtype=np.int64)
    if n == 0:
        return partition
    in_block = np.zeros(n, dtype=bool)
    grown_weight = 0
    seed = int(rng.integers(0, n))
    counter = 0
    heap = [(0, counter, seed)]
    gain_of = {seed: 0}
    while heap and grown_weight < target_weight:
        neg_gain, _, v = heapq.heappop(heap)
        if in_block[v] or gain_of.get(v, 0) != -neg_gain:
            continue
        if grown_weight + int(graph.vwgt[v]) > target_weight and grown_weight > 0:
            continue
        in_block[v] = True
        grown_weight += int(graph.vwgt[v])
        for u, w in zip(graph.neighbors(v).tolist(), graph.incident_weights(v).tolist()):
            if in_block[u]:
                continue
            gain_of[u] = gain_of.get(u, 0) + int(w)
            counter += 1
            heapq.heappush(heap, (-gain_of[u], counter, u))
    partition[in_block] = 0
    if grown_weight < target_weight:
        unreached = ~in_block & ~np.isin(np.arange(n), list(gain_of))
        for v in np.flatnonzero(unreached).tolist():
            if grown_weight + int(graph.vwgt[v]) <= target_weight:
                partition[v] = 0
                grown_weight += int(graph.vwgt[v])
    return partition


class TestGreedyGrowingMatchesOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_partition_and_rng_state(self, seed):
        draw = np.random.default_rng(1000 + seed)
        n = int(draw.integers(2, 120))
        # Sparse enough that some graphs are disconnected (the absorb tail).
        m = int(draw.integers(0, 3 * n))
        edges = {
            (min(u, v), max(u, v))
            for u, v in draw.integers(0, n, size=(m, 2)).tolist() if u != v
        }
        graph = from_edges(
            n, sorted(edges), weights=draw.integers(1, 9, size=len(edges)),
            vwgt=draw.integers(1, 6, size=n),
        )
        target = None if seed % 2 else int(graph.total_node_weight // 3)
        got_rng, want_rng = rng(seed), rng(seed)
        got = greedy_graph_growing_bisection(graph, got_rng, target)
        want = property_reading_growing(graph, want_rng, target)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestRecursiveBisection:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_balanced_kway(self, k):
        g = rgg(9, seed=0)
        part = recursive_bisection(g, k, rng(4))
        assert int(part.max()) + 1 <= k
        assert imbalance(g, part, k) < 0.25  # rough balance before refinement

    def test_k_one(self):
        g = path_graph(5)
        part = recursive_bisection(g, 1, rng(0))
        assert np.all(part == 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            recursive_bisection(path_graph(4), 0, rng(0))


class TestRegionGrowing:
    """Greedy growing is region growing from a seed: on a planted
    partition the best of a few attempts finds the planted blocks."""

    def test_greedy_growing_finds_planted_blocks(self):
        g, truth = planted_partition(2, 60, p_in=0.4, p_out=0.002, seed=2)
        part = best_of(g, 2, max_block_weight_bound(g, 2, 0.05), rng(7), attempts=6)
        assert edge_cut(g, part) <= 3 * edge_cut(g, truth)


class TestBestOf:
    def test_prefers_balance_then_cut(self):
        g = rgg(8, seed=2)
        part = best_of(g, 2, max_block_weight_bound(g, 2, 0.03), rng(8), attempts=6)
        assert imbalance(g, part, 2) <= 0.2

    def test_single_attempt_works(self):
        g = path_graph(8)
        part = best_of(g, 2, max_block_weight_bound(g, 2, 0.03), rng(9), attempts=1)
        assert set(np.unique(part)) == {0, 1}
