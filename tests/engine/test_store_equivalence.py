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

An out-of-core store runs the compiled phase kernel once per *shard
segment* (the windows whose first node lies in one shard, their arcs one
``arc_block``); the grid of :func:`test_store_path_identity` covers what
can go wrong there — windows that cross seams, one mapped shard, weight
files or none, no arcs at all, the degree-filtered order of cluster mode,
a band — and the last tests its error paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.api import partition_graph, partition_oocore
from repro.engine import LocalBackend, run_sclp
from repro.generators import barabasi_albert, rmat
from repro.graph import from_edges, open_sharded, save_sharded
from repro.graph.ops import band_nodes
from repro.graph.validation import max_block_weight_bound
from repro.obsv.tracer import TRACER
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


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_partition_oocore_iterations_must_be_a_count(graph, bad):
    """-1 would return the striped start unrefined, 2.5 fail inside
    ``range``: both are refused up front, naming the argument."""
    with pytest.raises(ValueError, match=rf"iterations must be an integer >= 0, got {bad}"):
        partition_oocore(graph, K, iterations=bad)


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_partition_oocore_seed_must_be_a_count(graph, bad):
    with pytest.raises(ValueError, match=rf"seed must be an integer >= 0, got {bad}"):
        partition_oocore(graph, K, seed=bad)


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


@pytest.mark.parametrize("nodes_per_shard", [1, 4])
@pytest.mark.parametrize("n", [0, 5], ids=["empty", "edgeless"])
def test_degenerate_graphs_on_every_store(n, nodes_per_shard, tmp_path):
    """No nodes, or no arcs: both entry points return a partition on
    either store, and the flat pass returns the same one on both."""
    graph = from_edges(n, [])
    save_sharded(graph, tmp_path / "shards", nodes_per_shard=nodes_per_shard)
    sharded = open_sharded(tmp_path / "shards")
    flat = [partition_oocore(g, 3, seed=1).partition for g in (graph, sharded)]
    np.testing.assert_array_equal(flat[0], flat[1])
    for g in (graph, sharded):
        result = partition_graph(g, 3, seed=1)
        assert result.partition.shape == (n,) and result.feasible
        assert set(result.partition.tolist()) <= {0, 1, 2}


def _weighted(graph):
    """``graph`` with symmetric arc weights and node weights, so the shard
    directory holds ``adjwgt`` and ``vwgt`` files."""
    rng = np.random.default_rng(4)
    adjwgt = (graph.arc_sources() + graph.adjncy) % 5 + 1
    return graph.with_weights(vwgt=rng.integers(1, 4, graph.num_nodes), adjwgt=adjwgt)


#: case -> (graph, nodes per shard, mapped shards, run_sclp arguments)
STORE_CASES = {
    # 1500 nodes, 32 refreshes: windows of 47 nodes across seams of 64
    "seams": (barabasi_albert(1500, seed=3), 64, 3, {}),
    "one-resident-shard": (rmat(10, seed=2), 64, 1, {}),
    "adjwgt-files": (_weighted(rmat(10, seed=2)), 64, 3, {}),
    "unit-weights": (rmat(10, seed=2), 64, 3, {}),
    "edgeless": (from_edges(300, []), 64, 2, {}),
    # isolated nodes leave the order: windows of the filtered order
    "cluster": (rmat(10, seed=2), 64, 3, {"refine": False}),
    "band": (barabasi_albert(1500, seed=3), 64, 2, {"band": True}),
}


def _store_call(graph, extra):
    n = graph.num_nodes
    if extra.get("refine", True):
        labels = _striped(graph)
        kwargs = dict(refine=True, k=K, pin_sweep=None)
        if extra.get("band"):
            kwargs["band"] = band_nodes(graph.materialized(), labels, 1)
        bound = max_block_weight_bound(graph, K, 0.0)
    else:
        labels = np.arange(n, dtype=np.int64)
        kwargs = {}
        bound = max(1, int(graph.vwgt.sum()) // 40)

    def call(g):
        return run_sclp(LocalBackend(g, np.random.default_rng(5)), labels,
                        bound, 5, ordering="node", tie_seed=5, **kwargs)
    return call


def _traced(fn):
    TRACER.enable(reset=True)
    try:
        labels = fn()
        spans = [r for r in TRACER.snapshot() if r.get("name") == "lp.iteration"]
    finally:
        TRACER.disable()
    counts = [tuple(s["attrs"][a] for a in ("moved", "arcs", "chunks", "active"))
              for s in spans]
    return labels, counts, spans


@pytest.mark.parametrize("case", list(STORE_CASES))
def test_store_path_identity(case, tmp_path):
    graph, span, resident_shards, extra = STORE_CASES[case]
    save_sharded(graph, tmp_path / "shards", nodes_per_shard=span)
    sharded = open_sharded(tmp_path / "shards", max_resident_shards=resident_shards)
    call = _store_call(graph, extra)
    want, want_counts, _ = _traced(lambda: call(graph))
    got, got_counts, spans = _traced(lambda: call(sharded))
    np.testing.assert_array_equal(got, want)
    assert got_counts == want_counts
    assert {s["attrs"]["loop"] for s in spans} == {"native: store segments"}
    stats = sharded.store.stats()
    # one arc_block per segment, never a gather
    assert stats.gathers == sum(s["attrs"]["segments"] for s in spans)
    if graph.num_arcs:
        assert stats.shard_misses > 0
    if case == "seams":  # 64 clamped, capped to 47: not a divisor of 64
        assert {s["attrs"]["chunk_size"] for s in spans} == {47}


@pytest.mark.parametrize("ordering", ["degree", "random"])
def test_store_refuses_an_order_it_cannot_stream(sharded, ordering):
    labels = _striped(sharded)
    with pytest.raises(ValueError, match=r"MmapShardStore.*ordering='node'"):
        run_sclp(LocalBackend(sharded, np.random.default_rng(0)), labels, 10**6, 2,
                 refine=True, k=K, ordering=ordering)
    band = np.array([5, 3, 9], dtype=np.int64)
    with pytest.raises(ValueError, match="unsorted band"):
        run_sclp(LocalBackend(sharded, np.random.default_rng(0)), labels, 10**6, 2,
                 refine=True, k=K, ordering="node", band=band)


def test_shard_with_a_neighbour_out_of_range(graph, tmp_path):
    """A shard file of the right size and dtype passes the store's checks;
    a neighbour id in it beyond the graph is the kernel's to refuse."""
    save_sharded(graph, tmp_path / "shards", nodes_per_shard=NODES_PER_SHARD)
    path = tmp_path / "shards" / "shard-00003.adjncy.npy"
    arcs = np.load(path)
    arcs[len(arcs) // 2] = graph.num_nodes + 7
    np.save(path, arcs)
    with pytest.raises(ValueError, match="neighbour or label index outside its table"):
        partition_oocore(open_sharded(tmp_path / "shards"), K, seed=3)


def _phase_scan(graph, labels, *, space, bound):
    """A compiled refine-mode frontier ``PhaseScan`` over ``graph`` with
    ``labels`` and live tables, its arcs not yet bound."""
    n = graph.num_nodes
    return native.PhaseScan(
        graph.xadj, labels, None, graph.vwgt,
        np.bincount(labels, minlength=space).astype(np.int64), None,
        np.zeros(n, dtype=bool), n_local=n, space=space, bound=bound,
        refine=True, frontier=True, tie_seed=0, tie_base=0, window=n,
    )


@pytest.mark.parametrize("block", ["before", "after", "unbound"])
def test_arcs_outside_the_bound_block(block):
    """A visited node with an arc outside the bound block makes
    ``scan_phase`` return -1 (a ``ValueError`` here) before its window
    reads a single arc: the block is a slice of a larger array whose
    entries on either side would pull node 0 into label 1, and no label
    moves."""
    graph = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    n, space = graph.num_nodes, 2
    labels = np.array([0, 0, 0, 0, 1, 1], dtype=np.int64)
    before = labels.copy()
    lure = np.full(graph.num_arcs + 8, 5, dtype=np.int64)  # node 5: label 1
    arc_lo, arc_hi = int(graph.xadj[1]), int(graph.xadj[4])  # nodes 1..3
    lure[4 + arc_lo : 4 + arc_hi] = graph.adjncy[arc_lo:arc_hi]
    weights = np.full(lure.size, 100, dtype=np.int64)
    scan = _phase_scan(graph, labels, space=space, bound=n)
    order = {"before": [0, 1, 2], "after": [1, 2, 3, 4], "unbound": [1]}[block]
    if block != "unbound":
        scan.bind_arcs(arc_lo, lure[4 + arc_lo : 4 + arc_hi],
                       weights[4 + arc_lo : 4 + arc_hi])
    masks = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    with pytest.raises(ValueError, match="outside the bound block"):
        scan(np.array(order, dtype=np.int64), len(order),
             np.full(space, n, dtype=np.int64), None, None, *masks)
    np.testing.assert_array_equal(labels, before)
    assert not scan._scratch["acc"].any()
    # the nodes the block does hold run as on the whole CSR
    scan.bind_arcs(arc_lo, graph.adjncy[arc_lo:arc_hi], graph.adjwgt[arc_lo:arc_hi])
    scan(np.array([1, 2, 3], dtype=np.int64), 3,
         np.full(space, n, dtype=np.int64), None, None, *masks)
