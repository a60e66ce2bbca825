"""Tests for the cluster-contraction hierarchy and projection."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PartitionConfig, coarsen, fast_config, project_partition
from repro.engine.vcycle import MIN_SHRINK_FACTOR
from repro.generators import load_instance, planted_partition, rgg
from repro.graph import check_graph
from repro.metrics import edge_cut

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCoarsen:
    def test_complex_network_shrinks_fast(self):
        g = load_instance("eu-2005")
        h = coarsen(g, fast_config(k=2, social=True), rng(), cluster_factor=14.0)
        assert h.depth >= 1
        # the paper: one contraction step shrinks complex networks by
        # orders of magnitude
        assert h.levels[0].shrink_factor < 0.15

    def test_mesh_shrinks_slowly_but_steadily(self):
        g = rgg(10, seed=0)
        h = coarsen(g, fast_config(k=2, social=False), rng(), cluster_factor=20_000.0)
        assert h.coarsest.num_nodes <= max(
            fast_config(k=2).coarsest_target(), g.num_nodes
        )

    def test_reaches_target_or_stalls(self):
        config = fast_config(k=2)
        g, _ = planted_partition(8, 40, seed=0)
        h = coarsen(g, config, rng(), cluster_factor=14.0)
        assert (
            h.coarsest.num_nodes <= config.coarsest_target()
            or h.depth == 0
            or h.levels[-1].shrink_factor >= MIN_SHRINK_FACTOR
        )

    def test_all_levels_valid_and_weight_conserving(self):
        g = load_instance("amazon")
        h = coarsen(g, fast_config(k=2, social=True), rng(1), cluster_factor=14.0)
        total = g.total_node_weight
        for level in h.levels:
            check_graph(level.coarse, require_positive_weights=True)
            assert level.coarse.total_node_weight == total

    def test_small_graph_not_coarsened(self, two_triangles):
        h = coarsen(two_triangles, fast_config(k=2), rng(), cluster_factor=14.0)
        assert h.depth == 0
        assert h.coarsest is two_triangles

    def test_constraint_preserves_cut_edges(self):
        g, truth = planted_partition(4, 50, p_in=0.3, p_out=0.02, seed=2)
        constraint = (truth >= 2).astype(np.int64)  # a 2-partition
        config = PartitionConfig(k=2, coarsest_nodes_per_block=2)
        h = coarsen(g, config, rng(3), cluster_factor=14.0, constraint=constraint)
        # project the constraint to the coarsest graph: the cut there must
        # equal the cut on the input graph (no cut edge was contracted)
        projected = constraint
        for level in h.levels:
            coarse_constraint = np.zeros(level.coarse.num_nodes, dtype=np.int64)
            coarse_constraint[level.fine_to_coarse] = projected
            # also check no cluster spans the constraint
            back = coarse_constraint[level.fine_to_coarse]
            assert np.array_equal(back, projected)
            projected = coarse_constraint
        assert edge_cut(h.coarsest, projected) == edge_cut(g, constraint)


class TestProjection:
    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_projection_preserves_cut(self, graph, seed):
        generator = rng(seed)
        h = coarsen(
            graph,
            PartitionConfig(k=2, coarsest_nodes_per_block=1),
            generator,
            cluster_factor=2.0,
        )
        coarse_partition = generator.integers(0, 2, size=h.coarsest.num_nodes)
        fine = h.project_to_finest(coarse_partition)
        assert edge_cut(graph, fine) == edge_cut(h.coarsest, coarse_partition)

    def test_project_partition_function(self):
        coarse = np.array([1, 0])
        mapping = np.array([0, 0, 1, 1])
        assert project_partition(coarse, mapping).tolist() == [1, 1, 0, 0]
