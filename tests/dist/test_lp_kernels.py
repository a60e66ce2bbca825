"""Distributed tests for the chunked SCLP kernels.

``chunk_size=1`` on the full sweep must reproduce the reference oracle
(``tests/engine/reference_sclp.py``) label-for-label on every PE count,
in every mode; larger chunks must hold quality and hard balance.  Also covers the validated
interface-label scatter (a bad sender is named, not silently scattered).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.engine import SpmdBackend, run_sclp
from repro.engine.backend import exchange_interface_labels
from repro.generators import rgg, rmat
from repro.graph import block_weights, max_block_weight_bound
from repro.metrics import edge_cut

from ..engine.reference_sclp import reference_sclp


GRAPH = rmat(10, seed=3)
CONSTRAINT = np.random.default_rng(3).integers(0, 2, GRAPH.num_nodes)


def sclp(comm, dgraph, oracle, *args, **kwargs):
    """One seeded SCLP call: the oracle, or the engine at chunk 1 on the
    full sweep."""
    backend = SpmdBackend(dgraph, comm)
    if oracle:
        return reference_sclp(backend, *args, tie_seed=17, **kwargs)
    return run_sclp(backend, *args, chunk=1, pin_sweep="full", tie_seed=17,
                    **kwargs)


def cluster_program(comm, oracle, constrained):
    dgraph = DistGraph.from_global(
        GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank
    )
    cons = None
    if constrained:
        cons = np.zeros(dgraph.n_total, dtype=np.int64)
        cons[: dgraph.n_local] = CONSTRAINT[
            dgraph.first : dgraph.first + dgraph.n_local
        ]
        dgraph.halo_exchange(comm, cons)
    init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
    labels = sclp(comm, dgraph, oracle, init, 30, 3, constraint=cons)
    return dgraph.gather_global(comm, labels[: dgraph.n_local])


def refine_program(comm, oracle):
    dgraph = DistGraph.from_global(
        GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank
    )
    start = np.random.default_rng(7).integers(0, 4, GRAPH.num_nodes)
    labels = np.zeros(dgraph.n_total, dtype=np.int64)
    labels[: dgraph.n_local] = start[dgraph.first : dgraph.first + dgraph.n_local]
    dgraph.halo_exchange(comm, labels)
    labels = sclp(
        comm, dgraph, oracle, labels, int(GRAPH.vwgt.sum()) // 4 + 8, 4,
        refine=True, shares=True, k=4, ordering="random",
    )
    return dgraph.gather_global(comm, labels[: dgraph.n_local])


class TestDistributedEquivalence:
    """chunk_size=1 vs the reference oracle, label-for-label."""

    @pytest.mark.parametrize("size", [1, 2, 4])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_cluster_mode(self, size, constrained):
        oracle = run_spmd(size, cluster_program, True, constrained,
                          seed=1).value
        unit = run_spmd(size, cluster_program, False, constrained,
                        seed=1).value
        assert np.array_equal(oracle, unit)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_refine_mode(self, size):
        oracle = run_spmd(size, refine_program, True, seed=1).value
        unit = run_spmd(size, refine_program, False, seed=1).value
        assert np.array_equal(oracle, unit)


class TestDistributedChunkedQuality:
    def test_default_chunk_cluster_bound(self):
        size, bound = 4, 30

        def fn(comm):
            dgraph = DistGraph.from_global(
                GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank
            )
            init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
            labels = run_sclp(SpmdBackend(dgraph, comm), init, bound, 3,
                              tie_seed=int(comm.rng.integers(0, 2**63 - 1)))
            return dgraph.gather_global(comm, labels[: dgraph.n_local])

        clustering = run_spmd(size, fn, seed=2).value
        weights = np.bincount(clustering, weights=GRAPH.vwgt.astype(np.float64))
        # soft guarantee: each of the p local views respects the bound
        assert weights.max() <= size * bound

    def test_default_chunk_refine_balance(self):
        graph = rgg(10, seed=5)
        k = 2
        lmax = max_block_weight_bound(graph, k, 0.03)
        start = (np.arange(graph.num_nodes) % k).astype(np.int64)

        def fn(comm):
            dgraph = DistGraph.from_global(
                graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
            )
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = start[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            labels = run_sclp(
                SpmdBackend(dgraph, comm), labels, lmax, 6, refine=True,
                shares=True, k=k, ordering="random",
                tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
            )
            return dgraph.gather_global(comm, labels[: dgraph.n_local])

        result = run_spmd(4, fn, seed=3).value
        assert block_weights(graph, result, k).max() <= lmax
        assert edge_cut(graph, result) < edge_cut(graph, start)


class TestInterfaceScatterValidation:
    def test_bad_sender_is_named(self):
        # rank 0 ships a label update for a node that is NOT ghosted on
        # rank 1 (corrupted send list); rank 1 must raise naming rank 0
        # instead of scattering into a neighbouring ghost slot.
        graph = rgg(8, seed=0)

        def fn(comm):
            dgraph = DistGraph.from_global(
                graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
            )
            labels = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
            changed = np.ones(dgraph.n_local, dtype=bool)
            if comm.rank == 0:
                # a node on no send list is interior, so its global id
                # is not in rank 1's ghost table
                interior = np.setdiff1d(
                    np.arange(dgraph.n_local), np.concatenate(dgraph.send_nodes))[0]
                for i, q in enumerate(dgraph.send_ranks.tolist()):
                    if q == 1:
                        dgraph.send_nodes[i] = np.append(
                            dgraph.send_nodes[i], interior
                        )
            exchange_interface_labels(dgraph, comm, labels, changed)
            return True

        with pytest.raises(ValueError, match=r"from rank 0"):
            run_spmd(2, fn, seed=0)

    def test_consistent_exchange_locates_ghosts(self):
        graph = rgg(8, seed=1)

        def fn(comm):
            dgraph = DistGraph.from_global(
                graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
            )
            labels = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
            changed = np.ones(dgraph.n_local, dtype=bool)
            idx, values = exchange_interface_labels(dgraph, comm, labels, changed)
            # every update lands on a ghost slot and carries the owner's
            # global id (labels were initialised to global ids)
            assert np.all(idx >= dgraph.n_local)
            assert np.array_equal(values, dgraph.ghost_global[idx - dgraph.n_local])
            return True

        result = run_spmd(3, fn, seed=0)
        assert all(result.per_rank)
