"""Tests for the cluster-contraction hierarchy and projection: the
sequential backend's levels, built by the engine's coarsening loop."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LocalVcycleBackend, PartitionConfig, fast_config
from repro.engine.vcycle import MIN_SHRINK_FACTOR, run_coarsening
from repro.generators import load_instance, planted_partition, rgg
from repro.graph import check_graph, max_block_weight_bound
from repro.metrics import edge_cut

from ..conftest import random_graphs


def rng(seed=0):
    return np.random.default_rng(seed)


def levels_of(graph, config, generator, factor, constraint=None):
    """The levels of one descent, finest first, and the coarsest graph."""
    lmax = max_block_weight_bound(graph, config.k, config.epsilon)
    levels, _ = run_coarsening(LocalVcycleBackend(graph, config, generator, lmax),
                               config, lmax, factor, seed_partition=constraint)
    return levels, levels[-1].coarse if levels else graph


def shrink(level):
    return level.coarse.num_nodes / level.fine.num_nodes


class TestCoarsen:
    def test_complex_network_shrinks_fast(self):
        g = load_instance("eu-2005")
        levels, _ = levels_of(g, fast_config(k=2, social=True), rng(), 14.0)
        assert len(levels) >= 1
        # the paper: one contraction step shrinks complex networks by
        # orders of magnitude
        assert shrink(levels[0]) < 0.15

    def test_mesh_shrinks_slowly_but_steadily(self):
        g = rgg(10, seed=0)
        _, coarsest = levels_of(g, fast_config(k=2, social=False), rng(), 20_000.0)
        assert coarsest.num_nodes <= max(
            fast_config(k=2).coarsest_target(), g.num_nodes
        )

    def test_reaches_target_or_stalls(self):
        config = fast_config(k=2)
        g, _ = planted_partition(8, 40, seed=0)
        levels, coarsest = levels_of(g, config, rng(), 14.0)
        assert (
            coarsest.num_nodes <= config.coarsest_target()
            or not levels
            or shrink(levels[-1]) >= MIN_SHRINK_FACTOR
        )

    def test_all_levels_valid_and_weight_conserving(self):
        g = load_instance("amazon")
        levels, _ = levels_of(g, fast_config(k=2, social=True), rng(1), 14.0)
        total = g.total_node_weight
        for level in levels:
            check_graph(level.coarse, require_positive_weights=True)
            assert level.coarse.total_node_weight == total

    def test_small_graph_not_coarsened(self, two_triangles):
        levels, coarsest = levels_of(two_triangles, fast_config(k=2), rng(), 14.0)
        assert levels == []
        assert coarsest is two_triangles

    def test_constraint_preserves_cut_edges(self):
        g, truth = planted_partition(4, 50, p_in=0.3, p_out=0.02, seed=2)
        constraint = (truth >= 2).astype(np.int64)  # a 2-partition
        config = PartitionConfig(k=2, coarsest_nodes_per_block=2)
        levels, coarsest = levels_of(g, config, rng(3), 14.0, constraint=constraint)
        # project the constraint to the coarsest graph: the cut there must
        # equal the cut on the input graph (no cut edge was contracted)
        projected = constraint
        for level in levels:
            coarse_constraint = np.zeros(level.coarse.num_nodes, dtype=np.int64)
            coarse_constraint[level.fine_to_coarse] = projected
            # also check no cluster spans the constraint
            back = coarse_constraint[level.fine_to_coarse]
            assert np.array_equal(back, projected)
            projected = coarse_constraint
        assert edge_cut(coarsest, projected) == edge_cut(g, constraint)


class TestProjection:
    @given(random_graphs(min_nodes=2), st.integers(min_value=0, max_value=2**31 - 1))
    def test_projection_preserves_cut(self, graph, seed):
        generator = rng(seed)
        config = PartitionConfig(k=2, coarsest_nodes_per_block=1)
        lmax = max_block_weight_bound(graph, 2, config.epsilon)
        backend = LocalVcycleBackend(graph, config, generator, lmax)
        levels, _ = run_coarsening(backend, config, lmax, 2.0)
        coarsest = levels[-1].coarse if levels else graph
        coarse_partition = generator.integers(0, 2, size=coarsest.num_nodes)
        fine = coarse_partition
        for level in reversed(levels):  # the uncoarsening's projection hook
            fine = backend.project(level, fine)
        assert edge_cut(graph, fine) == edge_cut(coarsest, coarse_partition)
