"""Tests for PT-Scotch-style band refinement."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import LocalBackend, run_sclp
from repro.generators import random_geometric_graph
from repro.graph import block_weights, from_edges, max_block_weight_bound, path_graph
from repro.graph.ops import band_nodes
from repro.metrics import edge_cut

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


def refine(graph, partition, lmax, iterations, generator, band_distance=None):
    """Refinement LP, restricted to the band of ``band_distance`` if given
    (an empty band scans nothing and returns the partition)."""
    band = None if band_distance is None else band_nodes(graph, partition, band_distance)
    return run_sclp(
        LocalBackend(graph, generator), partition, lmax, iterations, refine=True,
        ordering="random", band=band, tie_seed=int(generator.integers(0, 2**63 - 1)),
    )


class TestBandNodes:
    def test_distance_one_is_boundary(self, two_triangles):
        part = np.array([0, 0, 0, 1, 1, 1])
        band = band_nodes(two_triangles, part, 1)
        assert band.tolist() == [2, 3]

    def test_distance_grows_band(self):
        g = path_graph(10)
        part = (np.arange(10) >= 5).astype(np.int64)
        assert band_nodes(g, part, 1).tolist() == [4, 5]
        assert band_nodes(g, part, 2).tolist() == [3, 4, 5, 6]
        assert band_nodes(g, part, 4).tolist() == list(range(1, 9))

    def test_uncut_partition_has_empty_band(self, two_triangles):
        band = band_nodes(two_triangles, np.zeros(6, dtype=np.int64), 3)
        assert band.size == 0

    @given(random_graphs(min_nodes=2), st.integers(min_value=1, max_value=4))
    def test_band_contains_all_boundary_nodes(self, graph, distance):
        part = np.arange(graph.num_nodes) % 2
        band = set(band_nodes(graph, part, distance).tolist())
        from repro.metrics import boundary_nodes

        assert set(boundary_nodes(graph, part).tolist()) <= band


class TestBandedRefinement:
    def test_reaches_same_optimum_as_full(self, two_triangles):
        bad = np.array([0, 0, 1, 0, 1, 1])  # nodes 2/3 swapped
        lmax = max_block_weight_bound(two_triangles, 2, 0.5)
        refined = refine(two_triangles, bad, lmax, 8, rng(0), band_distance=2)
        assert edge_cut(two_triangles, refined) == 1

    def test_outside_band_never_moves(self):
        g = path_graph(12)
        part = (np.arange(12) >= 6).astype(np.int64)
        lmax = max_block_weight_bound(g, 2, 0.2)
        refined = refine(g, part, lmax, 4, rng(1), band_distance=1)
        # nodes far from the old boundary keep their block
        assert refined[0] == 0 and refined[11] == 1

    def test_uncut_input_returned_unchanged(self, two_triangles):
        part = np.zeros(6, dtype=np.int64)
        refined = refine(two_triangles, part, 6, 4, rng(0), band_distance=2)
        assert np.array_equal(refined, part)

    @given(random_graphs(min_nodes=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_never_worsens_and_never_overloads(self, graph, seed):
        generator = rng(seed)
        k = 2
        lmax = max_block_weight_bound(graph, k, 0.5)
        order = np.argsort(-graph.vwgt, kind="stable")
        partition = np.zeros(graph.num_nodes, dtype=np.int64)
        loads = [0, 0]
        for v in order.tolist():
            b = int(loads[1] < loads[0])
            partition[v] = b
            loads[b] += int(graph.vwgt[v])
        if max(loads) > lmax:
            return
        before = edge_cut(graph, partition)
        refined = refine(graph, partition, lmax, 4, generator,
                         band_distance=2)
        assert edge_cut(graph, refined) <= before
        assert block_weights(graph, refined, k).max() <= lmax

    def test_band_quality_close_to_full_on_mesh(self):
        g = random_geometric_graph(1500, seed=2)
        part = (np.arange(g.num_nodes) % 2).astype(np.int64)
        lmax = max_block_weight_bound(g, 2, 0.03)
        full = refine(g, part, lmax, 6, rng(3))
        banded = refine(g, part, lmax, 6, rng(3), band_distance=2)
        assert edge_cut(g, banded) <= 1.3 * edge_cut(g, full)
