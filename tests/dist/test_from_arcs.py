"""Direct tests for DistGraph.from_arcs (the coarse-graph constructor)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistGraph, balanced_vtxdist

from ..conftest import random_graphs


class TestFromArcs:
    def test_matches_from_global(self):
        """Building from a rank's own arc list must reproduce from_global."""
        from repro.generators import random_geometric_graph

        graph = random_geometric_graph(120, seed=0)
        vtxdist = balanced_vtxdist(graph.num_nodes, 3)
        for rank in range(3):
            ref = DistGraph.from_global(graph, vtxdist, rank)
            src_global = ref.to_global(ref.arc_sources())
            dst_global = ref.to_global(ref.adjncy)
            built = DistGraph.from_arcs(
                vtxdist, rank, src_global, dst_global, ref.adjwgt, ref.vwgt
            )
            assert built.n_local == ref.n_local
            assert np.array_equal(built.ghost_global, ref.ghost_global)
            assert np.array_equal(built.ghost_owner, ref.ghost_owner)
            assert np.array_equal(built.xadj, ref.xadj)
            # arc multiset per node must match (order may differ)
            for v in range(ref.n_local):
                got = sorted(zip(built.to_global(built.neighbors(v)).tolist(),
                                 built.incident_weights(v).tolist()))
                want = sorted(zip(ref.to_global(ref.neighbors(v)).tolist(),
                                  ref.incident_weights(v).tolist()))
                assert got == want

    def test_merges_duplicate_arcs(self):
        """Two PEs may ship the same coarse arc: the weights are summed and
        the row comes out ordered by neighbour."""
        vtxdist = np.array([0, 2, 5])
        built = DistGraph.from_arcs(
            vtxdist, 1,
            np.array([3, 2, 3, 2, 3, 4]), np.array([0, 4, 0, 3, 2, 2]),
            np.array([5, 1, 2, 4, 7, 3]), np.array([1, 1, 1]),
        )
        assert built.xadj.tolist() == [0, 2, 4, 5]
        assert built.to_global(built.adjncy).tolist() == [3, 4, 0, 2, 2]
        assert built.adjwgt.tolist() == [4, 1, 7, 7, 3]

    def test_rejects_an_arc_it_does_not_own(self):
        with pytest.raises(ValueError, match="not owned by rank 0"):
            DistGraph.from_arcs(
                np.array([0, 2, 4]), 0, np.array([0, 3]), np.array([1, 0]),
                np.array([1, 1]), np.array([1, 1]),
            )

    def test_empty_rank(self):
        vtxdist = np.array([0, 2, 2])  # rank 1 owns nothing
        built = DistGraph.from_arcs(
            vtxdist, 1,
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        )
        assert built.n_local == 0
        assert built.n_ghost == 0
        assert built.num_arcs == 0

    def test_send_recv_structures_consistent(self):
        vtxdist = np.array([0, 2, 4])
        # rank 0 owns {0,1}; arcs 0-2 and 1-3 cross to rank 1
        built = DistGraph.from_arcs(
            vtxdist, 0,
            np.array([0, 1]), np.array([2, 3]),
            np.array([5, 7]), np.array([1, 1]),
        )
        assert built.send_ranks.tolist() == [1]
        assert built.send_nodes[0].tolist() == [0, 1]
        assert built.recv_ghosts[0].tolist() == [2, 3]  # local ghost ids
        assert built.ghost_owner.tolist() == [1, 1]
