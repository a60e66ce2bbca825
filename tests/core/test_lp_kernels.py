"""Tests for the chunked SCLP kernels: the NumPy oracle's parts
(``tests/engine/numpy_kernels.py``) and the compiled phase through
``run_sclp``.

The load-bearing contract: ``chunk_size=1`` pinned to the full sweep is
the node-at-a-time algorithm — it reproduces the reference oracle of
``tests/engine/reference_sclp.py`` *bit for bit* across cluster mode,
refine mode, V-cycle constraint masking, both weight regimes and band
refinement, including on degenerate generated graphs.  Larger chunks
only have to match in quality, not label-for-label.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine import LocalBackend, run_sclp
from repro.engine.kernels import (
    DEFAULT_CHUNK_SIZE,
    MIN_REFRESHES_PER_PHASE,
    effective_chunk,
)
from repro.generators import grid_2d, rmat
from repro.graph import block_weights, from_edges
from repro.graph.ops import band_nodes
from repro.metrics import edge_cut, modularity

from ..conftest import random_graphs
from ..engine.numpy_kernels import (
    ChunkCandidates,
    aggregate_candidates,
    candidate_tie_hash,
    capped_inflow_mask,
    chunk_ranges,
    pick_targets_hashed,
    plan_chunk,
)
from ..engine.reference_sclp import reference_sclp


def seeded_sclp(graph, bound, iterations, seed, labels=None, **kwargs):
    """One ``run_sclp`` call from singletons (or ``labels``) whose generator
    also draws the tie seed."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = np.arange(graph.num_nodes)
    return run_sclp(LocalBackend(graph, rng), labels, bound, iterations,
                    tie_seed=int(rng.integers(0, 2**63 - 1)), **kwargs)


def gather_candidates(nodes, graph_arrays, labels, constraint=None):
    """``plan_chunk`` + ``aggregate_candidates``."""
    xadj, adjncy, adjwgt = graph_arrays
    plan = plan_chunk(np.asarray(nodes), xadj, adjncy, adjwgt, constraint)
    return aggregate_candidates(plan, labels, int(labels.max(initial=0)) + 1)


class TestChunkValidation:
    def test_chunk_below_one_rejected(self):
        graph = grid_2d(4, 4)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="chunk"):
                seeded_sclp(graph, 4, 1, 0, chunk=bad)

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="pin_sweep"):
            seeded_sclp(grid_2d(4, 4), 4, 1, 0, pin_sweep="adaptive")


class TestEffectiveChunk:
    def test_unit_chunk_passes_through(self):
        assert effective_chunk(1, 10) == 1
        assert effective_chunk(1, 0) == 1

    def test_caps_to_min_refreshes(self):
        n = 10 * MIN_REFRESHES_PER_PHASE
        assert effective_chunk(10**9, n) == 10
        # small requests are honoured as-is
        assert effective_chunk(4, n) == 4

    def test_never_below_one(self):
        assert effective_chunk(1024, 1) == 1


class TestChunkRanges:
    def test_covers_range(self):
        ranges = list(chunk_ranges(10, 4))
        assert ranges == [(0, 4), (4, 8), (8, 10)]
        assert list(chunk_ranges(0, 4)) == []


class TestPlanAndAggregate:
    def triangle(self):
        # 0-1, 0-2, 1-2 with distinct weights
        xadj = np.array([0, 2, 4, 6], dtype=np.int64)
        adjncy = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
        adjwgt = np.array([5, 1, 5, 3, 1, 3], dtype=np.int64)
        return xadj, adjncy, adjwgt

    def test_self_arcs_excluded_from_work(self):
        xadj, adjncy, adjwgt = self.triangle()
        plan = plan_chunk(np.array([0, 1]), xadj, adjncy, adjwgt)
        assert plan.arcs_scanned == 4  # degrees only, not the self-arcs
        assert plan.nbr.size == 6  # 4 arcs + 2 appended self-arcs

    def test_own_label_fallback_candidate(self):
        labels = np.array([0, 1, 1], dtype=np.int64)
        cands = gather_candidates([0], self.triangle(), labels)
        # node 0 sees label 1 (strength 6) and its own label 0 (strength 0)
        got = dict(zip(cands.labels.tolist(), cands.strength.tolist()))
        assert got == {1: 6, 0: 0}
        assert cands.is_own.sum() == 1

    def test_strengths_match_scalar_recomputation(self):
        graph = rmat(8, seed=0)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 17, graph.num_nodes)
        nodes = rng.choice(graph.num_nodes, 40, replace=False)
        cands = gather_candidates(
            nodes, (graph.xadj, graph.adjncy, graph.adjwgt), labels
        )
        for i, v in enumerate(nodes.tolist()):
            conn: dict[int, int] = {}
            for a in range(int(graph.xadj[v]), int(graph.xadj[v + 1])):
                u = int(graph.adjncy[a])
                conn[int(labels[u])] = conn.get(int(labels[u]), 0) + int(graph.adjwgt[a])
            conn.setdefault(int(labels[v]), 0)
            lo = int(cands.seg_start[i])
            hi = lo + int(cands.seg_count[i])
            assert cands.labels[lo:hi].tolist() == sorted(conn)  # label order
            got = dict(zip(cands.labels[lo:hi].tolist(),
                           cands.strength[lo:hi].tolist()))
            assert got == conn

    def test_constraint_filters_cross_arcs(self):
        constraint = np.array([0, 0, 1], dtype=np.int64)
        labels = np.array([0, 1, 2], dtype=np.int64)
        cands = gather_candidates(
            [0], self.triangle(), labels, constraint=constraint
        )
        assert 2 not in cands.labels.tolist()  # node 2 is across the cut


class TestPickTargets:
    def build(self, labels, strengths, seg):
        node_pos = np.repeat(np.arange(len(seg)), seg)
        seg_count = np.asarray(seg, dtype=np.int64)
        seg_start = np.zeros(len(seg), dtype=np.int64)
        np.cumsum(seg_count[:-1], out=seg_start[1:])
        return ChunkCandidates(
            node_pos=node_pos,
            labels=np.asarray(labels, dtype=np.int64),
            strength=np.asarray(strengths, dtype=np.int64),
            is_own=np.zeros(len(labels), dtype=bool),
            seg_start=seg_start,
            seg_count=seg_count,
            arcs_scanned=0,
        )

    def pick(self, cands, eligible, seed=0):
        tie_hash = candidate_tie_hash(seed, cands.node_pos, cands.labels)
        choice, _ = pick_targets_hashed(cands, np.asarray(eligible), tie_hash)
        return choice, tie_hash

    def test_masked_argmax(self):
        cands = self.build([10, 11, 12], [5, 9, 2], [3])
        choice, _ = self.pick(cands, [True, False, True])
        assert cands.labels[choice[0]] == 10  # 9 is masked, 5 beats 2

    def test_all_masked_gives_minus_one(self):
        cands = self.build([10, 11], [5, 9], [2])
        choice, _ = self.pick(cands, [False, False])
        assert choice.tolist() == [-1]

    def test_tie_goes_to_the_larger_hash(self):
        cands = self.build([4, 9], [7, 7], [2])
        winners = set()
        for seed in range(8):
            choice, tie_hash = self.pick(cands, [True, True], seed)
            assert choice[0] == int(np.argmax(tie_hash))
            winners.add(int(choice[0]))
        assert winners == {0, 1}  # the seed really decides

    def test_hash_collision_goes_to_the_first_label(self):
        cands = self.build([4, 9], [7, 7], [2])
        choice, _ = pick_targets_hashed(
            cands, np.ones(2, dtype=bool), np.array([3, 3], dtype=np.uint64))
        assert choice.tolist() == [0]


class TestCappedInflow:
    def test_prefix_cut_in_visit_order(self):
        targets = np.array([2, 2, 2], dtype=np.int64)
        weights = np.array([3, 3, 3], dtype=np.int64)
        used = np.full(3, 4, dtype=np.int64)
        budget = np.full(3, 10, dtype=np.int64)
        keep = capped_inflow_mask(targets, weights, used, budget)
        assert keep.tolist() == [True, True, False]  # 4+3+3 ok, 4+9 overruns

    def test_independent_targets(self):
        targets = np.array([0, 1, 0], dtype=np.int64)
        weights = np.array([5, 5, 5], dtype=np.int64)
        used = np.zeros(3, dtype=np.int64)
        budget = np.array([8, 8, 8], dtype=np.int64)
        keep = capped_inflow_mask(targets, weights, used, budget)
        assert keep.tolist() == [True, True, False]

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        assert capped_inflow_mask(e, e, e, e).size == 0


def engine_and_oracle(graph, bound, iterations, seed, *, labels=None,
                      **kwargs):
    """The same seeded SCLP call through the engine at ``chunk=1`` pinned
    to the full sweep, and through the reference oracle."""
    if labels is None:
        labels = np.arange(graph.num_nodes, dtype=np.int64)
    engine = run_sclp(
        LocalBackend(graph, np.random.default_rng(seed)), labels, bound,
        iterations, chunk=1, pin_sweep="full", tie_seed=seed + 100, **kwargs,
    )
    oracle = reference_sclp(
        LocalBackend(graph, np.random.default_rng(seed)), labels, bound,
        iterations, tie_seed=seed + 100, **kwargs,
    )
    return engine, oracle


#: degenerate inputs pinned as explicit hypothesis examples
EDGELESS = from_edges(6, [], vwgt=np.array([3, 1, 4, 1, 5, 2]))
HEAVY_NODE = from_edges(
    5, [(0, 1), (1, 2), (2, 3), (3, 4)], vwgt=np.array([20, 1, 1, 1, 1])
)
WITH_ISOLATED = from_edges(
    7, [(0, 1), (1, 2), (0, 2), (4, 5)], vwgt=np.array([1, 2, 1, 6, 1, 1, 3])
)


class TestSequentialEquivalence:
    """chunk_size=1 on the full sweep must match the oracle label-for-label."""

    @pytest.mark.parametrize("gname", ["rmat", "grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cluster_mode(self, gname, seed):
        graph = rmat(9, seed=1) if gname == "rmat" else grid_2d(18, 18)
        bound = max(2, int(graph.vwgt.sum()) // 40)
        engine, oracle = engine_and_oracle(graph, bound, 3, seed)
        assert np.array_equal(engine, oracle)
        assert np.unique(engine).size < graph.num_nodes  # it clustered

    @pytest.mark.parametrize("seed", [0, 3])
    def test_refine_mode(self, seed):
        graph = rmat(9, seed=2)
        start = np.random.default_rng(42).integers(0, 4, graph.num_nodes)
        # a bound below the heaviest start block: eviction is exercised
        bound = int(graph.vwgt.sum()) // 4 + 8
        for shares in (False, True):  # both weight regimes
            engine, oracle = engine_and_oracle(
                graph, bound, 4, seed, labels=start, ordering="random",
                refine=True, shares=shares, k=4,
            )
            assert np.array_equal(engine, oracle), f"shares={shares}"
            assert not np.array_equal(engine, start)

    def test_constraint_mode(self):
        graph = grid_2d(16, 16)
        constraint = (np.arange(graph.num_nodes) % 2).astype(np.int64)
        bound = max(2, int(graph.vwgt.sum()) // 30)
        engine, oracle = engine_and_oracle(
            graph, bound, 3, 5, constraint=constraint
        )
        assert np.array_equal(engine, oracle)

    def test_weighted_mode(self):
        # node and edge weights both non-trivial, as on a coarse level
        rng = np.random.default_rng(8)
        base = rmat(8, seed=4)
        src = np.repeat(np.arange(base.num_nodes), np.diff(base.xadj))
        once = src < base.adjncy
        edges = list(zip(src[once].tolist(), base.adjncy[once].tolist()))
        graph = from_edges(
            base.num_nodes, edges,
            weights=rng.integers(1, 9, len(edges)),
            vwgt=rng.integers(1, 6, base.num_nodes),
        )
        bound = max(int(graph.vwgt.max()), int(graph.vwgt.sum()) // 20)
        engine, oracle = engine_and_oracle(graph, bound, 3, 2)
        assert np.array_equal(engine, oracle)
        start = np.random.default_rng(9).integers(0, 3, graph.num_nodes)
        engine, oracle = engine_and_oracle(
            graph, int(graph.vwgt.sum()) // 3 + 4, 3, 2, labels=start,
            ordering="random", refine=True,
        )
        assert np.array_equal(engine, oracle)

    def test_band_mode(self):
        graph = grid_2d(16, 16)
        start = (np.arange(graph.num_nodes) % 16 >= 8).astype(np.int64)
        start[::7] ^= 1  # a ragged boundary
        band = band_nodes(graph, start, 2)
        assert 0 < band.size < graph.num_nodes
        engine, oracle = engine_and_oracle(
            graph, int(graph.vwgt.sum()) // 2 + 8, 3, 1, labels=start,
            ordering="random", refine=True, band=band,
        )
        assert np.array_equal(engine, oracle)
        outside = np.setdiff1d(np.arange(graph.num_nodes), band)
        assert np.array_equal(engine[outside], start[outside])

    @given(
        random_graphs(min_nodes=1, max_nodes=24),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["cluster", "refine-live", "refine-shares"]),
        st.booleans(),
    )
    @example(EDGELESS, 3, 2, "refine-live", False)
    @example(EDGELESS, 3, 2, "refine-shares", False)
    @example(HEAVY_NODE, 1, 4, "refine-live", False)
    @example(HEAVY_NODE, 1, 4, "cluster", True)
    @example(WITH_ISOLATED, 2, 2, "refine-shares", True)
    def test_generated_graphs(self, graph, seed, k, regime, constrained):
        """Small generated graphs, degenerate ones included: the strategy
        yields isolated nodes and edgeless graphs at low density, and the
        bound below routinely sits under the heaviest node; the pinned
        examples make sure each of those cases runs every time."""
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        constraint = rng.integers(0, 2, n) if constrained else None
        if regime == "cluster":
            bound = max(1, int(graph.vwgt.sum()) // 4)
            engine, oracle = engine_and_oracle(
                graph, bound, 3, seed, constraint=constraint,
                ordering="degree" if seed % 2 else "random",
            )
        else:
            start = rng.integers(0, k, n)
            bound = max(1, int(graph.vwgt.sum()) // k)  # eps = 0: evictions
            engine, oracle = engine_and_oracle(
                graph, bound, 3, seed, labels=start, ordering="random",
                refine=True, shares=regime == "refine-shares", k=k,
                constraint=constraint,
            )
        assert np.array_equal(engine, oracle)


class TestChunkedQuality:
    """Large chunks trade exactness for speed, not correctness."""

    def test_cluster_quality_parity(self):
        graph = rmat(11, seed=4)
        bound = max(2, int(graph.vwgt.sum()) // 50)
        scan = seeded_sclp(graph, bound, 3, 0, chunk=1, pin_sweep="full")
        chunked = seeded_sclp(graph, bound, 3, 0, chunk=DEFAULT_CHUNK_SIZE)
        m_scan = modularity(graph, scan)
        m_chunk = modularity(graph, chunked)
        assert m_chunk > 0.0
        assert m_chunk >= 0.8 * m_scan

    def test_cluster_bound_respected(self):
        graph = rmat(10, seed=6)
        bound = max(2, int(graph.vwgt.sum()) // 25)
        labels = seeded_sclp(graph, bound, 4, 1, chunk=DEFAULT_CHUNK_SIZE)
        weights = np.bincount(labels, weights=graph.vwgt.astype(np.float64))
        assert weights.max() <= bound

    def test_refine_quality_and_balance(self):
        graph = grid_2d(24, 24)
        k = 4
        start = (np.arange(graph.num_nodes) % k).astype(np.int64)
        bound = int(-(-int(graph.vwgt.sum()) * 1.03 // k))
        chunked = seeded_sclp(
            graph, bound, 6, 2, labels=start, ordering="random", refine=True,
            chunk=DEFAULT_CHUNK_SIZE,
        )
        assert block_weights(graph, chunked, k).max() <= bound
        assert edge_cut(graph, chunked) < edge_cut(graph, start)
