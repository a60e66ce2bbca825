"""Sequential frontier-sweep tests.

The frontier sweep must be label-identical to the full sweep *per
iteration* — not merely at convergence — in both modes, and so is the
sweep each mode runs when none is pinned.  Plus unit coverage for the
hashed argmax kernel that makes the identity possible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine import LocalBackend, run_sclp
from repro.engine.kernels import DEFAULT_CHUNK_SIZE, gather_neighbors
from repro.generators import rgg, rmat
from repro.graph import max_block_weight_bound, open_sharded, save_sharded

from ..conftest import random_graphs
from ..engine.numpy_kernels import ChunkCandidates, candidate_tie_hash, pick_targets_hashed
from .test_lp_kernels import EDGELESS, HEAVY_NODE, WITH_ISOLATED

GRAPHS = [rmat(9, seed=3), rgg(9, seed=5)]


def run(graph, sweep, refine, chunk, iterations, seed=7):
    """``sweep`` pins ``'full'``/``'frontier'``; ``None`` is the mode's own."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    total = int(graph.vwgt.sum())
    labels = np.arange(n) % 4 if refine else np.arange(n)
    bound = total // 3 if refine else total // 4
    return run_sclp(
        LocalBackend(graph, rng), labels, bound, iterations, refine=refine,
        chunk=chunk, pin_sweep=sweep, tie_seed=int(rng.integers(0, 2**63 - 1)),
    )


class TestFrontierIdentity:
    """frontier == full == the mode's own sweep, label for label, after
    every iteration count."""

    @pytest.mark.parametrize("graph", GRAPHS, ids=["rmat", "rgg"])
    @pytest.mark.parametrize("refine", [False, True], ids=["cluster", "refine"])
    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_identical_per_iteration(self, graph, refine, chunk):
        for iterations in (1, 2, 3, 5):
            full = run(graph, "full", refine, chunk, iterations)
            for sweep in ("frontier", None):
                other = run(graph, sweep, refine, chunk, iterations)
                assert np.array_equal(full, other), (
                    f"{sweep}: labels diverge after {iterations} iteration(s)"
                )

    @pytest.mark.parametrize("graph", GRAPHS, ids=["rmat", "rgg"])
    @pytest.mark.parametrize("refine", [False, True], ids=["cluster", "refine"])
    def test_adaptive_identical_per_iteration(self, graph, refine):
        # What a production caller gets — no sweep pinned, the default
        # chunk — against the pinned full sweep.  (The name dates from
        # the per-iteration sweep controller this rule replaced.)
        for iterations in (1, 3, 5):
            full = run(graph, "full", refine, DEFAULT_CHUNK_SIZE, iterations)
            default = run(graph, None, refine, DEFAULT_CHUNK_SIZE, iterations)
            assert np.array_equal(full, default), (
                f"labels diverge after {iterations} iteration(s)"
            )

    @given(
        random_graphs(min_nodes=1, max_nodes=24),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["cluster", "refine-live", "refine-shares"]),
        st.booleans(),
        st.sampled_from([1, 3, 16]),
    )
    @example(EDGELESS, 3, 2, "refine-live", False, 1)
    @example(EDGELESS, 3, 2, "refine-shares", False, 3)
    @example(HEAVY_NODE, 1, 4, "refine-live", False, 3)
    @example(HEAVY_NODE, 1, 4, "cluster", True, 16)
    @example(WITH_ISOLATED, 2, 2, "refine-shares", True, 3)
    def test_generated_graphs(self, graph, seed, k, regime, constrained, chunk):
        """Degenerate inputs included (edgeless, a node above the bound,
        isolated nodes): evictions, capped inflow and the isolated-node
        repair all feed the frontier's active set."""
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        constraint = rng.integers(0, 2, n) if constrained else None
        if regime == "cluster":
            args = (np.arange(n, dtype=np.int64),
                    max(1, int(graph.vwgt.sum()) // 4), 4)
            kwargs = dict(ordering="degree" if seed % 2 else "random")
        else:
            # eps = 0: overloaded blocks, evictions, ineligible winners
            args = (rng.integers(0, k, n), max(1, int(graph.vwgt.sum()) // k), 4)
            kwargs = dict(ordering="random", refine=True,
                          shares=regime == "refine-shares", k=k)
        full, frontier, default = (
            run_sclp(
                LocalBackend(graph, np.random.default_rng(seed)), *args,
                chunk=chunk, pin_sweep=sweep, tie_seed=seed + 100,
                constraint=constraint, **kwargs,
            )
            for sweep in ("full", "frontier", None)
        )
        assert np.array_equal(full, frontier)
        assert np.array_equal(full, default)


@pytest.mark.parametrize("shares", [False, True], ids=["live", "shares"])
def test_out_of_core_store_identical_per_iteration(tmp_path, shares):
    """The frontier over an ``MmapShardStore`` (one compiled call per
    shard segment, its flagged labels and slack carried across them) is
    the pinned full sweep label for label after every iteration, Lmax at
    eps = 0 so labels are blocked and blocks overloaded."""
    graph = rmat(10, seed=4)
    save_sharded(graph, tmp_path / "shards", nodes_per_shard=128)
    start = np.random.default_rng(3).integers(0, 6, graph.num_nodes)
    bound = max_block_weight_bound(graph, 6, 0.0)
    for iterations in (1, 2, 3, 5, 8):
        full, frontier = (
            run_sclp(
                LocalBackend(open_sharded(tmp_path / "shards", max_resident_shards=2),
                             np.random.default_rng(0)),
                start, bound, iterations, refine=True, shares=shares, k=6,
                ordering="node", chunk=32, pin_sweep=sweep, tie_seed=5,
            )
            for sweep in ("full", "frontier")
        )
        assert np.array_equal(full, frontier), (
            f"labels diverge after {iterations} iteration(s)"
        )


class TestHashedKernels:
    def test_tie_hash_is_deterministic_and_spread(self):
        nodes = np.arange(64, dtype=np.int64)
        labels = np.full(64, 3, dtype=np.int64)
        a = candidate_tie_hash(11, nodes, labels)
        b = candidate_tie_hash(11, nodes, labels)
        assert np.array_equal(a, b)
        assert np.unique(a).size == a.size  # no collisions on this range
        assert not np.array_equal(a, candidate_tie_hash(12, nodes, labels))

    def test_pick_targets_hashed_marks_risky(self):
        # One node, three candidates.  An ineligible label strictly
        # stronger than the eligible optimum is flagged; a
        # weaker ineligible one never is.
        cands = ChunkCandidates(
            node_pos=np.zeros(3, dtype=np.int64),
            labels=np.array([5, 6, 7], dtype=np.int64),
            strength=np.array([4, 5, 2], dtype=np.int64),
            is_own=np.array([False, False, True]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([3], dtype=np.int64),
            arcs_scanned=3,
        )
        eligible = np.array([True, False, True])
        tie_hash = candidate_tie_hash(
            0, np.zeros(3, dtype=np.int64), cands.labels
        )
        choice, flagged = pick_targets_hashed(cands, eligible, tie_hash)
        assert choice[0] == 0  # the eligible optimum
        # label 6 would win were it eligible
        assert flagged.tolist() == [False, True, False]

        eligible = np.array([True, True, True])
        choice, flagged = pick_targets_hashed(cands, eligible, tie_hash)
        assert not flagged.any()
        assert choice[0] == 1  # now the strongest candidate wins

    def test_pick_targets_hashed_equality_tie_risk_follows_hash(self):
        # An ineligible candidate tied with the eligible optimum is
        # flagged exactly when its phase-invariant hash would win the tie.
        cands = ChunkCandidates(
            node_pos=np.zeros(2, dtype=np.int64),
            labels=np.array([5, 6], dtype=np.int64),
            strength=np.array([4, 4], dtype=np.int64),
            is_own=np.array([False, False]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([2], dtype=np.int64),
            arcs_scanned=2,
        )
        tie_hash = candidate_tie_hash(
            3, np.zeros(2, dtype=np.int64), cands.labels
        )
        for ineligible in (0, 1):
            eligible = np.ones(2, dtype=bool)
            eligible[ineligible] = False
            choice, flagged = pick_targets_hashed(cands, eligible, tie_hash)
            assert choice[0] == 1 - ineligible
            assert not flagged[1 - ineligible]
            assert bool(flagged[ineligible]) == bool(
                tie_hash[ineligible] >= tie_hash[1 - ineligible]
            )

    def test_pick_targets_hashed_no_eligible_is_risky(self):
        cands = ChunkCandidates(
            node_pos=np.zeros(1, dtype=np.int64),
            labels=np.array([5], dtype=np.int64),
            strength=np.array([1], dtype=np.int64),
            is_own=np.array([False]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([1], dtype=np.int64),
            arcs_scanned=1,
        )
        tie_hash = candidate_tie_hash(0, np.zeros(1, np.int64), cands.labels)
        choice, flagged = pick_targets_hashed(cands, np.zeros(1, dtype=bool), tie_hash)
        assert choice[0] == -1
        assert flagged.tolist() == [True]

    def test_gather_neighbors_matches_csr(self):
        g = GRAPHS[0]
        nodes = np.array([0, 5, 17], dtype=np.int64)
        got = gather_neighbors(nodes, g.xadj, g.adjncy)
        want = np.concatenate(
            [g.adjncy[g.xadj[v]: g.xadj[v + 1]] for v in nodes]
        )
        assert np.array_equal(got, want)
