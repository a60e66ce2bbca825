"""Tests for the GraphStore layer: sharded CSR, shared memory, round trips."""

from __future__ import annotations

import glob
import json
import os
import re

import numpy as np
import pytest

from repro.api import partition_oocore
from repro.generators import rmat
from repro.graph import (
    Graph,
    StoreError,
    from_edges,
    load_npz,
    open_sharded,
    save_npz,
    save_sharded,
)
from repro.graph.store import (
    InMemoryStore,
    MmapShardStore,
    SharedMemoryStore,
    align_chunk_to_span,
)


def _weighted_graph(scale: int = 8, seed: int = 5) -> Graph:
    graph = rmat(scale, edge_factor=6, seed=seed)
    # Symmetric per-arc weights: w(u, v) depends only on the endpoint set.
    adjwgt = (graph.arc_sources() + graph.adjncy) % 7 + 1
    rng = np.random.default_rng(seed)
    return graph.with_weights(
        vwgt=rng.integers(1, 5, size=graph.num_nodes),
        adjwgt=adjwgt,
    )


def _round_trip(graph: Graph, tmp_path, nodes_per_shard: int = 64) -> Graph:
    save_sharded(graph, tmp_path / "shards", nodes_per_shard=nodes_per_shard)
    return open_sharded(tmp_path / "shards")


class TestShardedRoundTrip:
    def test_weighted(self, tmp_path):
        graph = _weighted_graph()
        again = _round_trip(graph, tmp_path)
        assert again.name == graph.name
        assert np.array_equal(again.xadj, graph.xadj)
        assert np.array_equal(again.vwgt, graph.vwgt)
        adjncy, adjwgt = again.store.materialize()
        assert np.array_equal(adjncy, graph.adjncy)
        assert np.array_equal(adjwgt, graph.adjwgt)
        assert again == graph.materialized() == again.materialized()

    def test_unweighted_omits_weight_files(self, tmp_path):
        graph = rmat(8, edge_factor=4, seed=1)
        again = _round_trip(graph, tmp_path)
        assert again == graph
        assert not (tmp_path / "shards" / "vwgt.npy").exists()
        assert not glob.glob(str(tmp_path / "shards" / "*.adjwgt.npy"))
        assert np.all(again.vwgt == 1)
        _, wgt = again.arc_block(0, again.num_arcs)
        assert np.all(wgt == 1)

    def test_isolated_nodes(self, tmp_path):
        graph = from_edges(9, [(0, 1), (4, 5)])  # nodes 2,3,6,7,8 isolated
        again = _round_trip(graph, tmp_path, nodes_per_shard=4)
        assert again == graph
        assert again.degrees.tolist() == graph.degrees.tolist()

    def test_empty_graph(self, tmp_path):
        graph = from_edges(0, [])
        again = _round_trip(graph, tmp_path)
        assert again.num_nodes == 0 and again.num_edges == 0

    def test_span_must_be_power_of_two(self, tmp_path):
        with pytest.raises(ValueError, match="power of two"):
            save_sharded(_weighted_graph(), tmp_path / "s", nodes_per_shard=100)

    def test_resharding_between_spans(self, tmp_path):
        graph = _weighted_graph()
        mid = _round_trip(graph, tmp_path, nodes_per_shard=32)
        save_sharded(mid, tmp_path / "wide", nodes_per_shard=128)
        wide = open_sharded(tmp_path / "wide")
        assert wide == graph.materialized()


class TestArcAccess:
    def test_arc_block_matches_slices(self, tmp_path):
        graph = _weighted_graph()
        sharded = _round_trip(graph, tmp_path, nodes_per_shard=32)
        rng = np.random.default_rng(0)
        m = graph.num_arcs
        for _ in range(20):
            start, end = sorted(int(x) for x in rng.integers(0, m + 1, size=2))
            nbr, wgt = sharded.arc_block(start, end)
            assert np.array_equal(nbr, graph.adjncy[start:end])
            assert np.array_equal(wgt, graph.adjwgt[start:end])

    def test_lru_bound_and_stats(self, tmp_path):
        graph = _weighted_graph()
        save_sharded(graph, tmp_path / "shards", nodes_per_shard=32)
        store = MmapShardStore.open(tmp_path / "shards", max_resident_shards=2)
        assert store.num_shards > 3
        for lo in range(0, store.num_nodes, 32):
            hi = min(lo + 32, store.num_nodes)
            store.arc_block(int(store.xadj[lo]), int(store.xadj[hi]))
        assert store.resident_shards <= 2
        stats = store.stats()
        assert stats.shard_misses >= store.num_shards
        assert stats.shard_evictions >= store.num_shards - 2
        assert stats.arcs_read == store.num_arcs
        # A second sweep of one resident shard is all hits.
        before = stats.shard_hits
        store.arc_block(int(store.xadj[0]), int(store.xadj[32]))
        store.arc_block(int(store.xadj[0]), int(store.xadj[32]))
        assert store.stats().shard_hits >= before + 1

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_a_residency_bound_below_one_or_not_integral_is_refused(
            self, tmp_path, bad):
        """No silent clamp to one shard: the bound is an integer >= 1."""
        save_sharded(_weighted_graph(), tmp_path / "shards", nodes_per_shard=32)
        for opener in (MmapShardStore.open, open_sharded):
            with pytest.raises(ValueError, match=rf"max_resident_shards .*{bad!r}"):
                opener(tmp_path / "shards", max_resident_shards=bad)
        assert MmapShardStore.open(tmp_path / "shards",
                                   max_resident_shards=np.int64(3))._max_resident == 3

    def test_eviction_keeps_gathered_data_valid(self, tmp_path):
        graph = _weighted_graph()
        save_sharded(graph, tmp_path / "shards", nodes_per_shard=32)
        store = MmapShardStore.open(tmp_path / "shards", max_resident_shards=1)
        end = min(30, int(store.xadj[32]))
        held, _ = store.arc_block(0, end)  # a view into the first shard's mapping
        # Touch every other shard so the first mapping is evicted.
        store.materialize()
        assert store.stats().shard_evictions > 0
        assert np.array_equal(held, graph.adjncy[:end])

    def test_clamp_chunk(self, tmp_path):
        assert align_chunk_to_span(0, 1024) == 0
        assert align_chunk_to_span(1, 1024) == 1
        assert align_chunk_to_span(4096, None) == 4096
        assert align_chunk_to_span(4096, 1024) == 1024
        assert align_chunk_to_span(100, 1024) == 64
        assert align_chunk_to_span(1024, 1024) == 1024
        graph = _weighted_graph()
        store = _round_trip(graph, tmp_path, nodes_per_shard=64).store
        assert store.clamp_chunk(4096) == 64
        assert InMemoryStore(
            graph.xadj, graph.adjncy, graph.vwgt, graph.adjwgt
        ).clamp_chunk(4096) == 4096


class TestManifestCorruption:
    @pytest.fixture
    def shard_dir(self, tmp_path):
        save_sharded(_weighted_graph(), tmp_path / "shards", nodes_per_shard=64)
        return tmp_path / "shards"

    def _edit_manifest(self, shard_dir, **changes):
        path = shard_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(changes)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no shard manifest"):
            open_sharded(tmp_path / "nowhere")

    def test_wrong_format(self, shard_dir):
        self._edit_manifest(shard_dir, format="other-format")
        with pytest.raises(StoreError, match="not a repro-sharded-csr"):
            open_sharded(shard_dir)

    def test_unsupported_version(self, shard_dir):
        self._edit_manifest(shard_dir, version=99)
        with pytest.raises(StoreError, match="unsupported format version"):
            open_sharded(shard_dir)

    def test_garbled_manifest(self, shard_dir):
        (shard_dir / "manifest.json").write_text("{not json")
        with pytest.raises(StoreError, match="unreadable shard manifest"):
            open_sharded(shard_dir)

    def test_missing_shard_file(self, shard_dir):
        (shard_dir / "shard-00001.adjncy.npy").unlink()
        with pytest.raises(StoreError, match="shard file missing"):
            open_sharded(shard_dir)

    def test_truncated_shard_file(self, shard_dir):
        victim = shard_dir / "shard-00001.adjncy.npy"
        np.save(victim, np.load(victim)[:-5])
        graph = open_sharded(shard_dir)  # manifest still self-consistent
        with pytest.raises(StoreError, match="truncated or swapped"):
            graph.materialized()

    def test_wrong_dtype_shard_file(self, shard_dir):
        victim = shard_dir / "shard-00000.adjncy.npy"
        np.save(victim, np.load(victim).astype(np.float64))
        graph = open_sharded(shard_dir)
        with pytest.raises(StoreError, match="truncated or swapped"):
            graph.arc_block(0, 4)

    def _mapped_then_evicted(self, shard_dir):
        """A store whose shard 1 was mapped, then evicted by shard 0."""
        store = MmapShardStore.open(shard_dir, max_resident_shards=1)
        for shard in (1, 0):
            lo, hi = shard * 64, (shard + 1) * 64
            store.arc_block(int(store.xadj[lo]), int(store.xadj[hi]))
        assert store.stats().shard_evictions == 1
        return store, int(store.xadj[64]), int(store.xadj[128])

    def test_shard_truncated_after_eviction(self, shard_dir):
        store, lo, hi = self._mapped_then_evicted(shard_dir)
        victim = shard_dir / "shard-00001.adjncy.npy"
        os.truncate(victim, victim.stat().st_size - 40)
        with pytest.raises(StoreError, match=re.escape(f"shard file {victim} is shorter")):
            store.arc_block(lo, hi)

    def test_shard_resaved_after_eviction(self, shard_dir):
        store, lo, hi = self._mapped_then_evicted(shard_dir)
        victim = shard_dir / "shard-00001.adjwgt.npy"
        np.save(victim, np.load(victim)[:-5])
        with pytest.raises(StoreError, match=re.escape(f"shard file {victim} changed")):
            store.arc_block(lo, hi)

    def test_tampered_arc_count(self, shard_dir):
        self._edit_manifest(shard_dir, num_arcs=17)
        with pytest.raises(StoreError):
            open_sharded(shard_dir)

    def test_tampered_node_count(self, shard_dir):
        self._edit_manifest(shard_dir, num_nodes=3)
        with pytest.raises(StoreError):
            open_sharded(shard_dir)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
class TestDescriptors:
    def test_fds_bounded_by_resident_shards_not_shard_count(self, tmp_path, monkeypatch):
        """A mapping holds a duplicate of its file's descriptor; a store that
        kept one mapping per shard it touched would hold one descriptor
        each, and fail past ``ulimit -n``.  The store holds at most the
        resident shards plus the one segment the kernel still binds."""
        resident = 2
        save_sharded(rmat(10, seed=3), tmp_path / "shards", nodes_per_shard=4)
        graph = open_sharded(tmp_path / "shards", max_resident_shards=resident)
        assert graph.store.num_shards == 256
        partition_oocore(graph, 4, iterations=1)  # builds and loads the kernel

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        peak = []
        map_shard = MmapShardStore._map_shard

        def counted(store, index):
            mapped = map_shard(store, index)
            peak.append(open_fds())
            return mapped

        monkeypatch.setattr(MmapShardStore, "_map_shard", counted)
        before = open_fds()
        partition_oocore(graph, 4, iterations=3)
        assert graph.store.stats().shard_misses > 2 * 256
        assert max(peak) - before <= resident + 1
        assert open_fds() - before <= resident + 1


class TestNpzRegression:
    def test_name_round_trip(self, tmp_path):
        graph = rmat(6, seed=2)
        save_npz(graph, tmp_path / "g.npz")
        assert load_npz(tmp_path / "g.npz").name == graph.name

    def test_trivial_weights_omitted(self, tmp_path):
        graph = rmat(6, seed=2)
        save_npz(graph, tmp_path / "g.npz")
        with np.load(tmp_path / "g.npz") as payload:
            assert "vwgt" not in payload and "adjwgt" not in payload
        assert load_npz(tmp_path / "g.npz") == graph

    def test_nontrivial_weights_kept(self, tmp_path):
        graph = _weighted_graph()
        save_npz(graph, tmp_path / "w.npz")
        with np.load(tmp_path / "w.npz") as payload:
            assert "vwgt" in payload and "adjwgt" in payload
        again = load_npz(tmp_path / "w.npz")
        assert np.array_equal(again.adjwgt, graph.adjwgt)
        assert np.array_equal(again.vwgt, graph.vwgt)


class TestSharedMemoryStore:
    def test_create_attach_unlink(self, no_shm_leak):
        graph = _weighted_graph(seed=9)
        owner = SharedMemoryStore.create(graph)
        try:
            peer = SharedMemoryStore.attach(owner.handle)
            assert np.array_equal(peer.xadj, graph.xadj)
            assert np.array_equal(peer.adjncy, graph.adjncy)
            assert np.array_equal(peer.vwgt, graph.vwgt)
            assert np.array_equal(peer.adjwgt, graph.adjwgt)
            with pytest.raises(ValueError):
                peer.adjncy[0] = 1  # read-only view
            peer.close()
        finally:
            owner.unlink()
            owner.unlink()  # idempotent

    def test_graph_from_store(self):
        graph = rmat(6, seed=3)
        owner = SharedMemoryStore.create(graph)
        try:
            shared = Graph.from_store(owner)
            assert shared.resident
            assert shared == graph
        finally:
            owner.unlink()
