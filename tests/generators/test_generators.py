"""Tests for the graph generators: validity, determinism, structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import check_graph, degree_statistics, is_connected
from repro.graph.ops import average_clustering_sample
from repro.generators import (
    barabasi_albert,
    delaunay,
    delaunay_graph,
    grid_2d,
    grid_3d,
    planted_partition,
    powerlaw_cluster,
    random_geometric_graph,
    rgg_radius,
    rmat,
    torus_2d,
    web_copy_graph,
)


class TestRgg:
    def test_valid_and_deterministic(self):
        a = random_geometric_graph(512, seed=7)
        b = random_geometric_graph(512, seed=7)
        check_graph(a)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_geometric_graph(256, seed=1) != random_geometric_graph(256, seed=2)

    def test_paper_radius_nearly_connects(self):
        # The paper's threshold is asymptotic; at our scaled n the giant
        # component still covers essentially all nodes.
        from repro.graph import largest_component

        g = random_geometric_graph(2048, seed=3)
        comp, _ = largest_component(g)
        assert comp.num_nodes > 0.99 * g.num_nodes

    def test_radius_formula(self):
        assert abs(rgg_radius(1024) - 0.55 * np.sqrt(np.log(1024) / 1024)) < 1e-12
        assert rgg_radius(1) == 1.0

    def test_matches_brute_force(self):
        n, seed = 200, 11
        g, pos = random_geometric_graph(n, seed=seed, return_positions=True)
        r2 = rgg_radius(n) ** 2
        expected = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if ((pos[u] - pos[v]) ** 2).sum() <= r2
        }
        got = {(u, v) for u, v, _ in g.edges()}
        assert got == expected

    def test_custom_radius(self):
        g = random_geometric_graph(128, radius=1.5, seed=0)
        # radius > diagonal: complete graph
        assert g.num_edges == 128 * 127 // 2

    def test_locality(self):
        # RGGs are mesh-type: low degree tail.
        g = random_geometric_graph(2048, seed=5)
        stats = degree_statistics(g)
        assert stats.tail_ratio < 4.0


class TestDelaunay:
    def test_valid_and_planar_density(self):
        g = delaunay_graph(1024, seed=1)
        check_graph(g)
        # Planar: m <= 3n - 6; Delaunay of random points: mean degree < 6.
        assert g.num_edges <= 3 * g.num_nodes - 6
        assert is_connected(g)

    def test_deterministic(self):
        assert delaunay_graph(256, seed=4) == delaunay_graph(256, seed=4)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            delaunay_graph(2)

    def test_unit_weights(self):
        g = delaunay_graph(300, seed=2)
        assert np.all(g.adjwgt == 1)

    def test_del16_edge_keys_do_not_overflow(self):
        # Regression: Qhull's int32 simplices overflowed lo * n + hi from
        # 2^16 points up ("negative axis 0 index").
        n = 2**16
        g = delaunay(16, seed=1)
        assert g.num_nodes == n
        assert 3 * n - 600 < g.num_edges <= 3 * n - 6  # planar, mean degree ~6


class TestMesh:
    def test_grid_2d(self):
        g = grid_2d(4, 5)
        check_graph(g)
        assert g.num_nodes == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_torus_degrees(self):
        g = torus_2d(5, 5)
        assert np.all(g.degrees == 4)

    def test_torus_small_extent_falls_back(self):
        # extent 2 would create duplicate wrap edges; generator avoids them.
        g = torus_2d(2, 5)
        check_graph(g)

    def test_grid_3d(self):
        g = grid_3d(3, 3, 3)
        check_graph(g)
        assert g.num_nodes == 27
        assert g.num_edges == 3 * (2 * 3 * 3)
        assert is_connected(g)


class TestRmat:
    def test_valid(self):
        g = rmat(9, edge_factor=8, seed=0)
        check_graph(g)
        assert g.num_nodes == 512

    def test_deterministic(self):
        assert rmat(8, seed=3) == rmat(8, seed=3)

    def test_heavy_tail(self):
        g = rmat(11, edge_factor=10, seed=1)
        stats = degree_statistics(g)
        assert stats.tail_ratio > 5.0  # hubs far above the mean

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            rmat(6, a=0.9, b=0.2, c=0.2)


class TestPreferentialAttachment:
    def test_ba_valid_connected(self):
        g = barabasi_albert(600, attach=3, seed=0)
        check_graph(g)
        assert is_connected(g)
        # each new node adds `attach` edges
        assert g.num_edges == 4 * 3 // 2 + (600 - 4) * 3

    def test_ba_power_law_tail(self):
        g = barabasi_albert(2000, attach=3, seed=1)
        assert degree_statistics(g).tail_ratio > 5.0

    def test_plc_clusters_more_than_ba(self):
        ba = barabasi_albert(1200, attach=4, seed=2)
        plc = powerlaw_cluster(1200, attach=4, triad_probability=0.8, seed=2)
        assert average_clustering_sample(plc) > average_clustering_sample(ba)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, attach=5)
        with pytest.raises(ValueError):
            barabasi_albert(10, attach=0)


class TestWebCopy:
    def test_valid_connected_enough(self):
        g = web_copy_graph(1500, seed=0)
        check_graph(g)

    def test_deterministic(self):
        assert web_copy_graph(400, seed=9) == web_copy_graph(400, seed=9)

    def test_heavy_tail_and_clustering(self):
        g = web_copy_graph(2500, out_degree=8, seed=1)
        assert degree_statistics(g).tail_ratio > 4.0
        assert average_clustering_sample(g) > 0.1  # real web graphs cluster

    def test_community_structure_present(self):
        from repro.metrics import modularity

        g = web_copy_graph(2000, hosts=8, inter_host_probability=0.02, seed=3)
        # ground-truth host labels should give clearly positive modularity
        rng_hosts = np.random.default_rng(3).integers(0, 8, size=2000)
        assert modularity(g, rng_hosts) > 0.1


class TestPlantedPartition:
    def test_ground_truth_recoverable_by_modularity(self):
        from repro.metrics import modularity

        g, truth = planted_partition(4, 64, p_in=0.3, p_out=0.005, seed=0)
        check_graph(g)
        assert modularity(g, truth) > 0.5

    def test_shapes(self):
        g, truth = planted_partition(3, 50, seed=1)
        assert g.num_nodes == 150
        assert truth.tolist() == sorted(truth.tolist())
        assert np.bincount(truth).tolist() == [50, 50, 50]

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            planted_partition(2, 10, p_in=0.1, p_out=0.5)

    def test_intra_pair_unranking_is_valid(self):
        g, truth = planted_partition(2, 40, p_in=0.9, p_out=0.0, seed=5)
        # p_out=0: every edge must be intra-block
        for u, v, _ in g.edges():
            assert truth[u] == truth[v]
