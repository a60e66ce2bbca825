"""Tests for FM refinement, k-way refinement, and the KaFFPa driver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.generators import delaunay, load_instance, planted_partition, rgg
from repro.graph import (
    block_weights,
    check_partition,
    from_edges,
    max_block_weight_bound,
    path_graph,
)
from repro.kaffpa import (
    KaffpaOptions,
    fm_bisection_refine,
    greedy_kway_refine,
    kaffpa_partition,
)
from repro.metrics import edge_cut

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


def balanced_bisection(graph, lmax):
    """Greedy weight-balanced 2-coloring; None if impossible within lmax."""
    order = np.argsort(-graph.vwgt, kind="stable")
    part = np.zeros(graph.num_nodes, dtype=np.int64)
    loads = [0, 0]
    for v in order.tolist():
        b = int(loads[1] < loads[0])
        part[v] = b
        loads[b] += int(graph.vwgt[v])
    return part if max(loads) <= lmax else None


class TestFmBisection:
    def test_fixes_a_swapped_pair(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        bad = np.array([0, 0, 1, 0, 1, 1])  # 2 and 3 swapped
        lmax = max_block_weight_bound(g, 2, 0.0)
        fixed = fm_bisection_refine(g, bad, lmax, rng(0))
        assert edge_cut(g, fixed) == 1

    def test_rejects_kway_input(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="2-way"):
            fm_bisection_refine(g, np.array([0, 1, 2, 0]), 4, rng(0))

    @given(random_graphs(min_nodes=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_never_worsens_balanced_input(self, graph, seed):
        lmax = max_block_weight_bound(graph, 2, 0.4)
        part = balanced_bisection(graph, lmax)
        if part is None:
            return
        before = edge_cut(graph, part)
        refined = fm_bisection_refine(graph, part, lmax, rng(seed))
        assert edge_cut(graph, refined) <= before
        assert block_weights(graph, refined, 2).max() <= lmax


class TestGreedyKway:
    def test_improves_random_partition(self):
        g = rgg(9, seed=3)
        part = rng(1).integers(0, 4, size=g.num_nodes)
        lmax = max_block_weight_bound(g, 4, 0.1)
        refined = greedy_kway_refine(g, part, 4, lmax, rng(2))
        assert edge_cut(g, refined) < edge_cut(g, part)

    @given(random_graphs(min_nodes=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_monotone_in_cut_and_never_overloads(self, graph, seed):
        generator = rng(seed)
        k = 3
        lmax = max_block_weight_bound(graph, k, 1.0)
        part = generator.integers(0, k, size=graph.num_nodes)
        if block_weights(graph, part, k).max() > lmax:
            return
        before = edge_cut(graph, part)
        refined = greedy_kway_refine(graph, part, k, lmax, generator)
        assert edge_cut(graph, refined) <= before
        assert block_weights(graph, refined, k).max() <= lmax

    def test_empty_graph(self):
        from repro.graph import empty_graph

        refined = greedy_kway_refine(empty_graph(0), np.empty(0, dtype=np.int64),
                                     2, 1, rng(0))
        assert refined.size == 0


class TestKaffpaDriver:
    # matching is the engine's one coarsening scheme; the id says so
    @pytest.mark.parametrize("options", [KaffpaOptions()], ids=["matching"])
    def test_partitions_mesh_balanced(self, options):
        g = rgg(10, seed=4)
        part = kaffpa_partition(g, 4, max_block_weight_bound(g, 4, 0.05), rng(5), options)
        check_partition(g, part, 4, epsilon=0.05)

    def test_seed_partition_never_worsened(self):
        g = load_instance("amazon")
        lmax = max_block_weight_bound(g, 2, 0.03)
        seed_part = kaffpa_partition(g, 2, lmax, rng(6))
        again = kaffpa_partition(g, 2, lmax, rng(7), seed_partition=seed_part)
        assert edge_cut(g, again) <= edge_cut(g, seed_part)

    def test_constraint_respected_through_multilevel(self):
        g, truth = planted_partition(2, 80, p_in=0.3, p_out=0.02, seed=3)
        # protect the ground-truth cut: with the constraint equal to the
        # truth, no truth-cut edge may be contracted, and the engine can
        # recover a partition at least as good as the truth itself.
        part = kaffpa_partition(g, 2, max_block_weight_bound(g, 2, 0.05), rng(8), constraint=truth,
                                seed_partition=truth)
        assert edge_cut(g, part) <= edge_cut(g, truth)

    def test_seed_is_protected_without_a_constraint(self):
        """A seed alone is the constraint: its cut edges are never
        contracted, so the cycle returns a balanced partition that cuts
        no more (before: matching contracted them and the cycle started
        over — 523 after 463 at s = 5)."""
        g = delaunay(11, seed=1)
        lmax = max_block_weight_bound(g, 8, 0.03)
        seed_part = kaffpa_partition(g, 8, lmax, rng(0))
        for s in range(6):
            again = kaffpa_partition(g, 8, lmax, rng(s + 1), seed_partition=seed_part)
            check_partition(g, again, 8, epsilon=0.03)
            assert edge_cut(g, again) <= edge_cut(g, seed_part)

    def test_constraint_must_refine_the_seed(self):
        g = rgg(9, seed=1)
        lmax = max_block_weight_bound(g, 4, 0.03)
        seed_part = kaffpa_partition(g, 4, lmax, rng(0))
        finer = seed_part * 2 + (np.arange(g.num_nodes) % 2)
        kaffpa_partition(g, 4, lmax, rng(1), constraint=finer, seed_partition=seed_part)
        halves = (np.arange(g.num_nodes) >= g.num_nodes // 2).astype(np.int64)
        with pytest.raises(ValueError, match="constraint does not refine seed_partition"):
            kaffpa_partition(g, 4, lmax, rng(1), constraint=halves,
                             seed_partition=seed_part)

    def test_near_optimal_on_planted(self):
        g, truth = planted_partition(2, 100, p_in=0.3, p_out=0.01, seed=4)
        part = kaffpa_partition(g, 2, max_block_weight_bound(g, 2, 0.03), rng(9))
        assert edge_cut(g, part) <= 1.3 * edge_cut(g, truth)

    def test_flow_refinement_option(self):
        g = rgg(10, seed=7)
        base = kaffpa_partition(g, 8, max_block_weight_bound(g, 8, 0.03), rng(10))
        flows = kaffpa_partition(g, 8, max_block_weight_bound(g, 8, 0.03), rng(10),
                                 KaffpaOptions(flow_refinement_below=10**6))
        check_partition(g, flows, 8, epsilon=0.03)
        # flows never hurt (pairwise accept-if-better) and usually help
        assert edge_cut(g, flows) <= 1.02 * edge_cut(g, base)
