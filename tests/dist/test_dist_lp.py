"""Tests for parallel size-constrained label propagation: ``run_sclp`` on
an ``SpmdBackend``, called as the V-cycle hooks call it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.dist.dist_partitioner import distributed_edge_cut
from repro.engine import SpmdBackend, run_sclp
from repro.generators import load_instance, planted_partition, rgg
from repro.graph import block_weights, max_block_weight_bound
from repro.metrics import edge_cut, modularity


def dist_program(graph, size, fn):
    """Run fn(comm, dgraph) on `size` PEs over a split of `graph`."""
    vtxdist = balanced_vtxdist(graph.num_nodes, size)

    def program(comm):
        dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
        return fn(comm, dgraph)

    return run_spmd(size, program, seed=7)


def cluster_lp(comm, dgraph, labels, bound, iterations, **kwargs):
    """Clustering: local weight views, degree order."""
    return run_sclp(SpmdBackend(dgraph, comm), labels, bound, iterations,
                    tie_seed=int(comm.rng.integers(0, 2**63 - 1)), **kwargs)


def refine_lp(comm, dgraph, labels, lmax, iterations, k):
    """Refinement: exact weights and 1/p budget shares, random order."""
    return run_sclp(SpmdBackend(dgraph, comm), labels, lmax, iterations,
                    refine=True, shares=True, k=k, ordering="random",
                    tie_seed=int(comm.rng.integers(0, 2**63 - 1)))


class TestClusterMode:
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_recovers_planted_communities(self, size):
        graph, truth = planted_partition(4, 50, p_in=0.35, p_out=0.01, seed=0)

        def fn(comm, dgraph):
            init = dgraph.to_global(np.arange(dgraph.n_total))
            labels = cluster_lp(comm, dgraph, init, 50, 6)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, size, fn)
        clustering = result.value
        # the size constraint (U = block size) fragments communities into
        # satellites at p = 1, so demand clearly-positive rather than
        # truth-level modularity
        assert modularity(graph, clustering) > 0.3

    @pytest.mark.parametrize("size", [2, 3])
    def test_ghost_labels_stay_consistent(self, size):
        graph = rgg(9, seed=1)

        def fn(comm, dgraph):
            init = dgraph.to_global(np.arange(dgraph.n_total))
            labels = cluster_lp(comm, dgraph, init, 30, 4)
            # after the final phase exchange, ghost labels must equal the
            # owner's view of those nodes
            owned = dgraph.gather_global(comm, labels)
            ghost_view = labels[dgraph.n_local :]
            return bool(np.array_equal(ghost_view, owned[dgraph.ghost_global]))

        result = dist_program(graph, size, fn)
        assert all(result.per_rank)

    def test_size_constraint_globally_soft_bounded(self):
        # local views can overshoot, but never beyond p * bound
        graph, _ = planted_partition(2, 80, p_in=0.3, p_out=0.02, seed=3)
        size, bound = 4, 20

        def fn(comm, dgraph):
            init = dgraph.to_global(np.arange(dgraph.n_total))
            labels = cluster_lp(comm, dgraph, init, bound, 5)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, size, fn)
        weights = np.bincount(result.value, weights=np.ones(graph.num_nodes))
        assert weights.max() <= size * bound

    def test_matches_sequential_on_one_pe(self):
        graph = load_instance("youtube")

        def fn(comm, dgraph):
            init = dgraph.to_global(np.arange(dgraph.n_total))
            labels = cluster_lp(comm, dgraph, init, 40, 3)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, 1, fn)
        # one PE: same *kind* of result as the sequential algorithm — a
        # clustering with clearly positive modularity (BA-style graphs
        # have weak community structure, so the bar is modest)
        assert modularity(graph, result.value) > 0.15

    def test_rejects_unknown_ordering(self):
        graph = rgg(8, seed=0)

        def fn(comm, dgraph):
            init = dgraph.to_global(np.arange(dgraph.n_total))
            return cluster_lp(comm, dgraph, init, 10, 1, ordering="bogus")

        with pytest.raises(ValueError, match="ordering"):
            dist_program(graph, 2, fn)

    def test_constraint_respected(self):
        graph, truth = planted_partition(2, 60, p_in=0.3, p_out=0.05, seed=4)
        constraint_global = (np.arange(graph.num_nodes) >= 60).astype(np.int64)

        def fn(comm, dgraph):
            cons = np.zeros(dgraph.n_total, dtype=np.int64)
            cons[: dgraph.n_local] = constraint_global[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, cons)
            init = dgraph.to_global(np.arange(dgraph.n_total))
            labels = cluster_lp(comm, dgraph, init, 60, 4, constraint=cons)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, 3, fn)
        clustering = result.value
        for c in np.unique(clustering):
            members = np.flatnonzero(clustering == c)
            assert np.unique(constraint_global[members]).size == 1


class TestRefineMode:
    def test_requires_k(self):
        graph = rgg(8, seed=0)

        def fn(comm, dgraph):
            init = np.zeros(dgraph.n_total, dtype=np.int64)
            return run_sclp(SpmdBackend(dgraph, comm), init, 100, 1,
                            refine=True, shares=True)

        with pytest.raises(ValueError, match="requires k"):
            dist_program(graph, 2, fn)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_balance_never_violated_from_balanced_start(self, size):
        graph = load_instance("youtube")
        k = 2
        lmax = max_block_weight_bound(graph, k, 0.03)
        start = (np.arange(graph.num_nodes) % k).astype(np.int64)
        assert block_weights(graph, start, k).max() <= lmax

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = start[dgraph.first : dgraph.first + dgraph.n_local]
            dgraph.halo_exchange(comm, labels)
            labels = refine_lp(comm, dgraph, labels, lmax, 6, k)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, size, fn)
        weights = block_weights(graph, result.value, k)
        assert weights.max() <= lmax
        # refinement should also clearly beat the striped start
        assert edge_cut(graph, result.value) < edge_cut(graph, start)

    def test_eviction_repairs_overload(self):
        graph = rgg(9, seed=5)
        k = 2
        lmax = max_block_weight_bound(graph, k, 0.03)
        # 70/30 overloaded start
        start = (np.arange(graph.num_nodes) >= int(0.7 * graph.num_nodes)).astype(np.int64)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = start[dgraph.first : dgraph.first + dgraph.n_local]
            dgraph.halo_exchange(comm, labels)
            labels = refine_lp(comm, dgraph, labels, lmax, 10, k)
            return dgraph.gather_global(comm, labels)

        result = dist_program(graph, 4, fn)
        before = block_weights(graph, start, k).max()
        after = block_weights(graph, result.value, k).max()
        assert after < before  # overload strictly reduced
        assert after <= lmax  # and fully repaired on this instance


class TestDistributedMetrics:
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_distributed_cut_matches_sequential(self, size):
        graph = rgg(9, seed=2)
        partition = np.random.default_rng(0).integers(0, 3, size=graph.num_nodes)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = partition[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            return distributed_edge_cut(dgraph, comm, labels)

        result = dist_program(graph, size, fn)
        assert all(c == edge_cut(graph, partition) for c in result.per_rank)

    def test_exact_block_weights_match(self):
        graph = rgg(8, seed=3)
        partition = np.random.default_rng(1).integers(0, 4, size=graph.num_nodes)
        expected = block_weights(graph, partition, 4)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = partition[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            return SpmdBackend(dgraph, comm).reduce_block_weights(labels, 4)

        result = dist_program(graph, 3, fn)
        for got in result.per_rank:
            assert np.array_equal(got, expected)
