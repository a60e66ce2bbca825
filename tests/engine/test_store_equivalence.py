"""Store equivalence: out-of-core SCLP must be bit-identical to in-memory.

The whole point of the :class:`~repro.graph.store.MmapShardStore` is
that it changes *where* the arc arrays live, never *what* the kernels
compute.  These tests pin that contract: the same SCLP program — same
sweep, ordering, chunk size, tie seed — run once on a resident graph
and once on its sharded on-disk copy must produce bit-identical labels,
across the sweep grid (pinned full, pinned frontier, the mode's own) and
across the execution backends (local, spmd, process — the distributed
paths materialize the sharded graph up front, which must also be exact).
The flat out-of-core partitioner and the streaming quality evaluator are
pinned the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import partition_graph, partition_oocore
from repro.engine import LocalBackend, run_sclp
from repro.generators import rmat
from repro.graph import open_sharded, save_sharded
from repro.graph.validation import max_block_weight_bound
from repro.metrics import (
    boundary_nodes,
    communication_volume,
    edge_cut,
    evaluate_partition,
    evaluate_partition_streaming,
)

K = 8
NODES_PER_SHARD = 64

#: (chunk request, pinned sweep); ``None`` is the mode's own sweep
SWEEP_GRID = [
    pytest.param(256, "full", id="256-full"),
    pytest.param(256, "frontier", id="256-frontier"),
    pytest.param(256, None, id="256-adaptive"),
]


@pytest.fixture(scope="module")
def graph():
    return rmat(10, edge_factor=8, seed=11)


@pytest.fixture(scope="module")
def sharded(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("store-eq") / "shards"
    save_sharded(graph, out, nodes_per_shard=NODES_PER_SHARD)
    return open_sharded(out, max_resident_shards=3)


def _striped(graph, k=K):
    vwgt = graph.vwgt
    prefix = np.cumsum(vwgt, dtype=np.int64) - vwgt
    return np.minimum((prefix * k) // max(1, int(vwgt.sum())), k - 1)


@pytest.mark.parametrize("chunk,sweep", SWEEP_GRID)
def test_local_backend_label_identity(graph, sharded, chunk, sweep):
    bound = max_block_weight_bound(graph, K, 0.03)
    results = []
    for g in (graph, sharded):
        backend = LocalBackend(g, np.random.default_rng(7))
        req = sharded.store.clamp_chunk(chunk)  # same chunk on both legs
        labels = run_sclp(
            backend, _striped(g), bound, 6, refine=True, shares=False,
            k=K, ordering="node", chunk=req, pin_sweep=sweep, tie_seed=7,
        )
        results.append(labels)
    assert np.array_equal(results[0], results[1])
    assert sharded.store.stats().shard_misses > 0  # really ran off disk


def test_partition_oocore_identity(graph, sharded):
    resident = partition_oocore(graph, K, seed=3)
    external = partition_oocore(sharded, K, seed=3)
    assert np.array_equal(resident.partition, external.partition)
    assert resident.quality == external.quality


def test_partition_graph_dispatches_nonresident(graph, sharded):
    via_dispatch = partition_graph(sharded, K, seed=3)
    direct = partition_oocore(graph, K, seed=3)
    assert np.array_equal(via_dispatch.partition, direct.partition)


def test_nonresident_graph_refuses_an_initial_partition(sharded):
    # The flat semi-external route has no V-cycle to protect a seed in;
    # it used to drop the argument without a word.
    seed = _striped(sharded)
    with pytest.raises(ValueError, match=r"initial_partition.*MmapShardStore"):
        partition_graph(sharded, K, num_pes=1, initial_partition=seed)
    # at p > 1 the graph is materialized and the seed is honoured
    seeded = partition_graph(sharded, K, num_pes=2, seed=5, initial_partition=seed)
    assert seeded.cut <= edge_cut(sharded.materialized(), seed)


@pytest.mark.parametrize("backend", ["spmd", "process"])
def test_distributed_backends_match_across_stores(graph, sharded, backend):
    resident = partition_graph(graph, K, num_pes=2, seed=5, backend=backend)
    external = partition_graph(sharded, K, num_pes=2, seed=5, backend=backend)
    assert np.array_equal(resident.partition, external.partition)
    assert resident.quality.cut == external.quality.cut


def test_streaming_quality_matches_dense(graph, sharded):
    rng = np.random.default_rng(2)
    partition = rng.integers(0, K, size=graph.num_nodes)
    dense = evaluate_partition(graph, partition, K)
    assert dense.cut == edge_cut(graph, partition)
    assert dense.boundary_node_count == boundary_nodes(graph, partition).size
    assert dense.communication_volume == communication_volume(graph, partition)
    assert evaluate_partition_streaming(graph, partition, K) == dense
    assert evaluate_partition_streaming(sharded, partition, K) == dense
    assert evaluate_partition(sharded, partition, K) == dense
