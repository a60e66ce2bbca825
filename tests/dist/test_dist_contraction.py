"""Tests for parallel contraction and uncoarsening (Section IV-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import native
from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.dist.dist_contraction import (
    _local_quotient,
    lookup_coarse_values,
    parallel_contract,
    parallel_uncoarsen,
)
from repro.generators import load_instance, planted_partition, rgg, rmat
from repro.graph import Graph, check_graph, contract, from_edges, normalize_labels
from repro.metrics import edge_cut

from ..conftest import graphs_with_labels
from ..engine.numpy_kernels import group_arcs as twin_group_arcs

_PATH5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], weights=[3, 1, 4, 1])


def split_and_run(graph, size, fn, seed=11):
    vtxdist = balanced_vtxdist(graph.num_nodes, size)

    def program(comm):
        dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
        return fn(comm, dgraph)

    return run_spmd(size, program, seed=seed)


def reassemble(comm, dgraph: DistGraph) -> tuple:
    """Rank-local (src, dst, wgt, vwgt) in global ids, for cross-checks."""
    return (
        dgraph.to_global(dgraph.arc_sources()),
        dgraph.to_global(dgraph.adjncy),
        dgraph.adjwgt.copy(),
        dgraph.vwgt.copy(),
    )


def rebuild_global(pieces, n) -> Graph:
    src = np.concatenate([p[0] for p in pieces])
    dst = np.concatenate([p[1] for p in pieces])
    wgt = np.concatenate([p[2] for p in pieces])
    vwgt = np.concatenate([p[3] for p in pieces])
    order = np.lexsort((dst, src))
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
    return Graph(xadj, dst[order], vwgt, wgt[order])


class TestParallelContract:
    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_matches_sequential_contraction(self, size):
        """Contracting a fixed global clustering in parallel must produce
        exactly the sequential quotient graph (up to coarse id order,
        which the prefix-sum remap makes identical here)."""
        graph = rgg(9, seed=0)
        rng = np.random.default_rng(3)
        clustering = rng.integers(0, 40, size=graph.num_nodes)
        expected = contract(graph, clustering)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = clustering[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            contraction = parallel_contract(dgraph, comm, labels)
            return reassemble(comm, contraction.coarse), contraction.coarse.n_global

        result = split_and_run(graph, size, fn)
        pieces = [r[0] for r in result.per_rank]
        n_coarse = result.per_rank[0][1]
        assert n_coarse == expected.coarse.num_nodes
        got = rebuild_global(pieces, n_coarse)
        check_graph(got)
        # The sequential normalisation maps sorted-unique cluster ids to
        # 0..n'-1; the parallel prefix-sum remap does the same, so the
        # graphs must be identical.
        assert got == expected.coarse

    @pytest.mark.parametrize("size", [2, 3])
    def test_mapping_consistent_with_labels(self, size):
        graph, _ = planted_partition(3, 40, seed=1)
        clustering = np.random.default_rng(4).integers(0, 25, size=graph.num_nodes)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = clustering[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            contraction = parallel_contract(dgraph, comm, labels)
            return dgraph.gather_global(comm,
                np.concatenate([contraction.local_to_coarse,
                                np.zeros(dgraph.n_ghost, dtype=np.int64)]))

        result = split_and_run(graph, size, fn)
        coarse_of = result.value
        # same fine cluster <=> same coarse node
        for c in np.unique(clustering):
            members = np.flatnonzero(clustering == c)
            assert np.unique(coarse_of[members]).size == 1
        distinct = np.unique(clustering).size
        assert np.unique(coarse_of).size == distinct

    def test_constraint_carried_to_coarse_level(self):
        graph, truth = planted_partition(2, 50, p_in=0.3, p_out=0.02, seed=2)
        constraint_global = (np.arange(graph.num_nodes) >= 50).astype(np.int64)
        # clustering that respects the constraint: cluster ids per side
        clustering = np.arange(graph.num_nodes) % 10 + constraint_global * 10

        def fn(comm, dgraph):
            lo = dgraph.first
            hi = lo + dgraph.n_local
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = clustering[lo:hi]
            dgraph.halo_exchange(comm, labels)
            cons = np.zeros(dgraph.n_total, dtype=np.int64)
            cons[: dgraph.n_local] = constraint_global[lo:hi]
            dgraph.halo_exchange(comm, cons)
            contraction = parallel_contract(dgraph, comm, labels, constraint=cons)
            coarse = contraction.coarse
            return comm.allgather(
                (coarse.vtxdist[comm.rank], contraction.coarse_constraint)
            )

        result = split_and_run(graph, 3, fn)
        pieces = sorted(result.value, key=lambda t: t[0])
        coarse_constraint = np.concatenate([p[1] for p in pieces])
        # 20 coarse nodes: first 10 clusters side 0, next 10 side 1
        assert coarse_constraint.tolist() == [0] * 10 + [1] * 10


def lexsort_local_quotient(dgraph, coarse_of):
    """A PE's quotient arcs as the contraction grouped them before it
    called the sequential kernel, with every arc reversed (the kernel
    builds the quotient of the transpose): relabel, drop self-loops,
    lexsort by (src, dst), segmented sum.  The oracle of
    ``_local_quotient``."""
    src = coarse_of[dgraph.adjncy]
    dst = coarse_of[dgraph.arc_sources()]
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], dgraph.adjwgt[keep]
    if src.size == 0:
        return src, dst, wgt
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    starts = np.flatnonzero(np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])])
    return src[starts], dst[starts], np.add.reduceat(wgt, starts)


class TestLocalQuotient:
    @pytest.mark.parametrize("kernel", ["compiled_kernels", "numpy_kernel"])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_matches_lexsort_oracle_per_rank(self, size, kernel, request):
        request.getfixturevalue(kernel)
        graph = rmat(11, seed=2)
        n = graph.num_nodes
        rng = np.random.default_rng(size)
        for clustering in (rng.integers(0, 90, n), np.arange(n), np.zeros(n, np.int64)):
            mapping, n_coarse = normalize_labels(clustering)
            coarse_vtxdist = balanced_vtxdist(n_coarse, size)
            vtxdist = balanced_vtxdist(n, size)
            for rank in range(size):
                dgraph = DistGraph.from_global(graph, vtxdist, rank)
                coarse_of = np.concatenate((
                    mapping[dgraph.first : dgraph.first + dgraph.n_local],
                    mapping[dgraph.ghost_global],
                ))
                per_dest = _local_quotient(dgraph, coarse_of, coarse_vtxdist)
                assert len(per_dest) == size
                for q, (src, _, _) in enumerate(per_dest):
                    assert np.all((src >= coarse_vtxdist[q]) & (src < coarse_vtxdist[q + 1]))
                got = [np.concatenate(column) for column in zip(*per_dest)]
                for g, w in zip(got, lexsort_local_quotient(dgraph, coarse_of)):
                    assert g.dtype == np.int64
                    np.testing.assert_array_equal(g, w)


def union_over_ranks(graph, labels, size):
    """Every rank's ``_local_quotient`` triples of ``graph`` split over
    ``size`` PEs, concatenated and grouped by the numpy twin, next to the
    sequential quotient of the whole graph."""
    mapping, n_coarse = normalize_labels(labels)
    vtxdist = balanced_vtxdist(graph.num_nodes, size)
    coarse_vtxdist = balanced_vtxdist(n_coarse, size)
    triples = []
    for rank in range(size):
        dgraph = DistGraph.from_global(graph, vtxdist, rank)
        coarse_of = np.concatenate((
            mapping[dgraph.first : dgraph.first + dgraph.n_local],
            mapping[dgraph.ghost_global],
        ))
        triples.extend(_local_quotient(dgraph, coarse_of, coarse_vtxdist))
    src, dst, wgt = (np.concatenate(column) for column in zip(*triples))
    got = twin_group_arcs(n_coarse, src, dst, wgt)
    want = native.quotient_arcs(graph.xadj, graph.adjncy, graph.adjwgt, mapping, n_coarse)
    return got, want


class TestUnionOverRanks:
    """Each rank's local quotient holds its arcs reversed; over all ranks
    they add up to the quotient of the whole graph."""

    @given(graphs_with_labels(), st.integers(min_value=1, max_value=4))
    @example((_PATH5, np.array([0, 1, 1, 1, 0])), 2)  # cluster 1 spans both ranks
    @example((from_edges(4, [(0, 1)]), np.array([0, 1, 2, 2])), 2)  # rank 1 has no arc
    @example((from_edges(3, [(0, 2)]), np.array([4, 4, 1])), 4)  # ranks without nodes
    def test_equals_the_quotient(self, graph_and_labels, size):
        got, want = union_over_ranks(*graph_and_labels, size)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)


class TestGhostMap:
    """The ghost slots ask for their labels' coarse ids themselves; the
    answers must be what the owners hold."""

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ghost_entries_equal_a_halo_exchange_of_the_owners_map(
            self, size, constrained, seed):
        graph = rmat(9, seed=seed)
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        constraint = rng.integers(0, 3, n)
        # Random cluster ids over the whole id range; under a constraint
        # no cluster spans two of its blocks.
        key = rng.integers(0, 25, n) * 3 + (constraint if constrained else 0)
        clustering = rng.permutation(n)[key]

        def fn(comm, dgraph):
            contraction = parallel_contract(
                dgraph, comm, dgraph.local_view(clustering),
                constraint=dgraph.local_view(constraint) if constrained else None)
            halo = np.zeros(dgraph.n_total, dtype=np.int64)
            halo[: dgraph.n_local] = contraction.local_to_coarse
            dgraph.halo_exchange(comm, halo)
            coarse_map = dgraph.gather_global(comm, contraction.local_to_coarse)
            coarse_constraint = None
            if constrained:
                coarse_constraint = contraction.coarse.gather_global(
                    comm, contraction.coarse_constraint)
            return contraction.coarse_of, halo, coarse_map, coarse_constraint

        result = split_and_run(graph, size, fn)
        for coarse_of, halo, _, _ in result.per_rank:
            np.testing.assert_array_equal(coarse_of, halo)
        _, _, coarse_map, coarse_constraint = result.value
        mapping, _ = normalize_labels(clustering)
        np.testing.assert_array_equal(coarse_map, mapping)
        if constrained:
            np.testing.assert_array_equal(coarse_constraint[coarse_map], constraint)


class TestCommRounds:
    @pytest.mark.parametrize("size", [2, 4])
    def test_one_request_exchange_per_level(self, size):
        """One contraction level is exactly 4 collectives:
        the request alltoall (ghost slots ask too, so no halo exchange of
        the coarse map follows), the allgather of the distinct counts
        (offset and n' at once), the response alltoall, and one shuffle
        of arcs and node weights together."""
        graph = rgg(9, seed=0)
        clustering = np.random.default_rng(3).integers(0, 40, graph.num_nodes)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = clustering[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            before = dict(comm.stats.per_op)
            parallel_contract(dgraph, comm, labels)
            return {op: count - before.get(op, (0, 0))[0]
                    for op, (count, _) in comm.stats.per_op.items()
                    if count != before.get(op, (0, 0))[0]}

        def program(comm):
            dgraph = DistGraph.from_global(
                graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
            )
            return fn(comm, dgraph)

        result = run_spmd(size, program, seed=11)
        assert all(ops == {"alltoall": 3, "allgather": 1} for ops in result.per_rank)


class TestLookupAndUncoarsen:
    def test_lookup_coarse_values(self):
        def program(comm):
            vtxdist = balanced_vtxdist(20, comm.size)
            first = int(vtxdist[comm.rank])
            count = int(vtxdist[comm.rank + 1]) - first
            local_values = (np.arange(count) + first) * 3  # global array v[i] = 3i
            queries = comm.rng.integers(0, 20, size=8)
            got = lookup_coarse_values(comm, queries, vtxdist, local_values)
            return bool(np.array_equal(got, queries * 3))

        result = run_spmd(4, program, seed=5)
        assert all(result.per_rank)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_uncoarsen_preserves_cut(self, size):
        graph = load_instance("youtube")
        clustering = np.random.default_rng(6).integers(0, 300, size=graph.num_nodes)

        def fn(comm, dgraph):
            labels = np.zeros(dgraph.n_total, dtype=np.int64)
            labels[: dgraph.n_local] = clustering[
                dgraph.first : dgraph.first + dgraph.n_local
            ]
            dgraph.halo_exchange(comm, labels)
            contraction = parallel_contract(dgraph, comm, labels)
            coarse = contraction.coarse
            # partition coarse nodes by parity of their global coarse id
            coarse_partition_local = (
                np.arange(coarse.first, coarse.first + coarse.n_local) % 2
            )
            fine_partition_local = parallel_uncoarsen(
                contraction, comm, coarse_partition_local
            )
            full = dgraph.gather_global(comm, fine_partition_local)
            coarse_cut_pieces = comm.allgather(
                (coarse.first, coarse_partition_local)
            )
            return full, coarse_cut_pieces, reassemble(comm, coarse), coarse.n_global

        result = split_and_run(graph, size, fn)
        fine_partition = result.per_rank[0][0]
        pieces = sorted(result.per_rank[0][1], key=lambda t: t[0])
        coarse_partition = np.concatenate([p[1] for p in pieces])
        coarse_graph = rebuild_global([r[2] for r in result.per_rank],
                                      result.per_rank[0][3])
        assert edge_cut(graph, fine_partition) == edge_cut(coarse_graph, coarse_partition)
