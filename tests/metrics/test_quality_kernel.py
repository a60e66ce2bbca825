"""The compiled quality sweep (``partition_quality`` of ``_coarse.c``).

* it returns what its NumPy twin (``tests/engine/numpy_kernels.py``)
  returns — cut, boundary count, communication volume, and through the
  evaluator the block weights — on a resident graph and on a sharded
  store of the same graph, weighted or not, down to no nodes, no edges,
  one block, isolated nodes and more blocks than nodes;
* the distributed cut (local rows over ghost-extended labels, then the
  allreduce) equals the sequential one;
* a node, neighbour or label outside its table, or a node with arcs
  outside the bound block, raises instead of reading past it, and the
  evaluator turns a partition it cannot score into a ``GraphError``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import native
from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.dist.dist_partitioner import distributed_edge_cut
from repro.generators import grid_2d, rmat
from repro.graph import (
    GraphError,
    block_weights,
    empty_graph,
    from_edges,
    open_sharded,
    save_sharded,
)
from repro.metrics import (
    communication_volume,
    edge_cut,
    evaluate_partition,
    evaluate_partition_streaming,
    overweight_cut,
)

from ..conftest import random_graphs
from ..engine.numpy_kernels import partition_quality as twin_quality

PARTITIONS = ("random", "one block", "round robin")


def partition_of(kind: str, n: int, k: int) -> np.ndarray:
    if kind == "random":
        return np.random.default_rng(n + k).integers(0, k, n)
    if kind == "one block":
        return np.zeros(n, dtype=np.int64)
    return np.arange(n, dtype=np.int64) % k


def twin_bundle(graph, labels: np.ndarray, k: int) -> tuple:
    """``(cut, boundary, volume, block weights)`` from the twin, one sweep
    over every row."""
    cut, boundary, volume = twin_quality(
        graph.xadj, 0, graph.num_nodes, 0, graph.adjncy, graph.adjwgt, labels, k
    )
    return cut // 2, boundary, volume, tuple(int(w) for w in block_weights(graph, labels, k))


def bundle(quality) -> tuple:
    return (quality.cut, quality.boundary_node_count,
            quality.communication_volume, quality.block_weights)


@given(
    st.one_of(random_graphs(min_nodes=0), random_graphs(min_nodes=0, max_weight=1)),
    st.integers(1, 50),
    st.sampled_from(PARTITIONS),
    st.sampled_from([1, 2, 4, 8]),
)
@example(empty_graph(0), 3, "random", 2)
@example(empty_graph(6), 2, "round robin", 4)
@example(from_edges(5, [(0, 1), (1, 2)], weights=[3, 5]), 9, "round robin", 2)
def test_kernel_equals_twin_on_every_store(graph, k, kind, nodes_per_shard):
    labels = partition_of(kind, graph.num_nodes, k)
    want = twin_bundle(graph, labels, k)
    with tempfile.TemporaryDirectory() as tmp:
        save_sharded(graph, Path(tmp) / "shards", nodes_per_shard=nodes_per_shard)
        sharded = open_sharded(Path(tmp) / "shards", max_resident_shards=2)
        for g in (graph, sharded):
            assert bundle(evaluate_partition_streaming(g, labels, k)) == want
            assert bundle(evaluate_partition(g, labels, k)) == want
            assert edge_cut(g, labels) == want[0]
            assert communication_volume(g, labels) == want[2]
            assert overweight_cut(g, labels, k, 0)[1] == want[0]


@given(random_graphs(), st.integers(1, 6), st.data())
def test_sums_decompose_over_source_ranges(graph, k, data):
    """Any split of the rows into ranges, each swept from its own arc
    block, adds up to the one sweep over every row."""
    n = graph.num_nodes
    labels = partition_of("random", n, k)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    whole = native.partition_quality(
        graph.xadj, 0, n, 0, graph.adjncy, graph.adjwgt, labels, k)
    parts = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        arc_lo, arc_hi = int(graph.xadj[lo]), int(graph.xadj[hi])
        block = graph.adjncy[arc_lo:arc_hi], graph.adjwgt[arc_lo:arc_hi]
        parts.append(native.partition_quality(
            graph.xadj, lo, hi, arc_lo, *block, labels, k))
        assert parts[-1] == twin_quality(graph.xadj, lo, hi, arc_lo, *block, labels, k)
    assert tuple(map(sum, zip(*parts))) == whole


def test_the_paper_metrics_on_a_grid():
    """A 4x4 grid in two column stripes: 4 cut edges, 8 boundary nodes,
    each of which sees one foreign block."""
    labels = np.arange(16, dtype=np.int64) % 4 // 2
    quality = evaluate_partition(grid_2d(4, 4), labels, 2)
    assert bundle(quality) == (4, 8, 8, (8, 8))


def _rank_cut(comm, graph, labels_global):
    dgraph = DistGraph.from_global(
        graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank)
    labels = np.zeros(dgraph.n_total, dtype=np.int64)
    labels[: dgraph.n_local] = labels_global[dgraph.first : dgraph.first + dgraph.n_local]
    dgraph.halo_exchange(comm, labels)
    return distributed_edge_cut(dgraph, comm, labels)


@pytest.mark.parametrize("p", [2, 4])
def test_distributed_cut_equals_the_sequential_cut(p):
    graph = rmat(9, seed=3)
    for k in (1, 5, 64):
        labels = partition_of("random", graph.num_nodes, k)
        result = run_spmd(p, _rank_cut, graph, labels, timeout=60)
        assert result.per_rank == [edge_cut(graph, labels)] * p


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------

KERNELS = [
    pytest.param(native.partition_quality, id="compiled"),
    pytest.param(twin_quality, id="twin"),
]

#: a path 0 - 1 - 2
XADJ = np.array([0, 1, 3, 4], dtype=np.int64)
NBR = np.array([1, 0, 2, 1], dtype=np.int64)
WGT = np.ones(4, dtype=np.int64)


@pytest.mark.parametrize("kernel", KERNELS)
class TestFaults:
    def test_the_path_itself_is_fine(self, kernel):
        labels = np.array([0, 1, 1], dtype=np.int64)
        assert kernel(XADJ, 0, 3, 0, NBR, WGT, labels, 2) == (2, 2, 2)

    def test_a_neighbour_outside_the_graph(self, kernel):
        nbr = NBR.copy()
        nbr[2] = 3
        with pytest.raises(ValueError, match="quality kernel: a neighbour id"):
            kernel(XADJ, 0, 3, 0, nbr, WGT, np.zeros(3, dtype=np.int64), 1)

    @pytest.mark.parametrize("node", [0, 2])
    def test_a_label_outside_the_space(self, kernel, node):
        labels = np.zeros(3, dtype=np.int64)
        labels[node] = 2
        with pytest.raises(ValueError, match="quality kernel: a block id"):
            kernel(XADJ, 1, 2, 0, NBR, WGT, labels, 2)  # node 1 reads both
        labels[node] = -1
        with pytest.raises(ValueError, match="quality kernel: a block id"):
            kernel(XADJ, 0, 3, 0, NBR, WGT, labels, 2)

    def test_a_node_with_arcs_outside_the_bound_block(self, kernel):
        labels = np.zeros(3, dtype=np.int64)
        # node 1's arcs are [1, 3): the block [0, 2) ends inside them
        with pytest.raises(ValueError, match="quality kernel: an arc range"):
            kernel(XADJ, 0, 2, 0, NBR[:2], WGT[:2], labels, 1)
        with pytest.raises(ValueError, match="quality kernel: an arc range"):
            kernel(XADJ, 0, 2, 1, NBR[1:3], WGT[1:3], labels, 1)
        assert kernel(XADJ, 1, 2, 1, NBR[1:3], WGT[1:3], labels, 1) == (0, 0, 0)

    def test_rows_outside_xadj(self, kernel):
        labels = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="quality kernel: a node id"):
            kernel(XADJ, 0, 4, 0, NBR, WGT, labels, 1)
        with pytest.raises(ValueError, match="quality kernel: a node id"):
            kernel(XADJ, 2, 3, 0, NBR, WGT, labels[:2], 1)


class TestTheEvaluatorRefusesWhatItCannotScore:
    GRAPH = grid_2d(4, 4)

    def test_a_label_at_or_above_k(self):
        with pytest.raises(GraphError, match=r"node 2 has label 2, outside \[0, k\) for k = 2"):
            evaluate_partition(self.GRAPH, np.arange(16) % 4, 2)

    def test_a_negative_label(self):
        labels = np.zeros(16, dtype=np.int64)
        labels[5] = -1
        with pytest.raises(GraphError, match="node 5 has label -1"):
            evaluate_partition(self.GRAPH, labels, 2)
        with pytest.raises(GraphError, match="node 5 has label -1"):
            edge_cut(self.GRAPH, labels)

    @pytest.mark.parametrize("size", [15, 17])
    def test_a_partition_of_the_wrong_length(self, size):
        with pytest.raises(GraphError, match=rf"shape \({size},\), expected \(16,\)"):
            evaluate_partition(self.GRAPH, np.zeros(size, dtype=np.int64), 2)
