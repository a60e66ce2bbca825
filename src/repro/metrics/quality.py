"""Partition-quality metrics used throughout the evaluation.

All metrics are defined exactly as in the paper (Section II-A):

* **edge cut** — total weight of edges whose endpoints lie in different
  blocks;
* **imbalance** — ``max_i c(V_i) / ceil(c(V)/k) - 1``;
* **boundary nodes** — nodes with a neighbour in another block;
* **communication volume** — for each node, the number of distinct other
  blocks among its neighbours, summed (the data a vertex-centric graph
  computation must ship per superstep — the more realistic objective the
  paper mentions).

Cut, boundary count and communication volume are one sweep of the
compiled :func:`repro.native.partition_quality` over the graph's rows:
one call over every row of a resident graph, one call per shard of an
out-of-core store.  Every cut the program computes is that sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import native
from ..graph.csr import Graph, GraphError
from ..graph.validation import block_weights, check_labels

__all__ = [
    "edge_cut",
    "overweight_cut",
    "imbalance",
    "boundary_nodes",
    "communication_volume",
    "max_communication_volume",
    "max_quotient_degree",
    "PartitionQuality",
    "evaluate_partition",
    "evaluate_partition_streaming",
]


def _labels(graph: Graph, partition: np.ndarray) -> np.ndarray:
    """``partition`` as the kernel reads it: one int64 label per node."""
    labels = np.ascontiguousarray(partition, dtype=np.int64)
    if labels.shape != (graph.num_nodes,):
        raise GraphError(
            f"partition has shape {labels.shape}, expected ({graph.num_nodes},)"
        )
    return labels


def _sweep(graph: Graph, labels: np.ndarray, k: int) -> tuple[int, int, int]:
    """``(edge cut, boundary nodes, communication volume)`` of ``labels``,
    every one in ``[0, k)`` (else :class:`GraphError` naming the first
    that is not).  The sums decompose exactly over source-node ranges, so
    the result is the same on every store."""
    n, xadj = graph.num_nodes, graph.xadj
    span = graph.store.chunk_nodes or max(n, 1)  # resident: every row at once
    totals = np.zeros(3, dtype=np.int64)
    try:
        for lo in range(0, n, span):
            hi = min(lo + span, n)
            arc_lo = int(xadj[lo])
            totals += native.partition_quality(
                xadj, lo, hi, arc_lo, *graph.arc_block(arc_lo, int(xadj[hi])),
                labels, k,
            )
    except ValueError:
        check_labels(labels, k)
        raise
    cut, boundary, volume = totals.tolist()
    return cut // 2, boundary, volume


def _label_count(labels: np.ndarray) -> int:
    return int(labels.max(initial=-1)) + 1


def edge_cut(graph: Graph, partition: np.ndarray) -> int:
    """Total weight of cut edges (each undirected edge counted once)."""
    labels = _labels(graph, partition)
    return _sweep(graph, labels, _label_count(labels))[0]


def overweight_cut(
    graph: Graph, partition: np.ndarray, k: int, lmax: int
) -> tuple[int, int]:
    """``(max(0, heaviest block - lmax), edge cut)``; smaller is better.

    The one ordering every keep-the-better decision uses: a balanced
    partition beats an overweight one, then the lower cut wins.
    """
    labels = _labels(graph, partition)
    cut = _sweep(graph, labels, k)[0]
    heaviest = int(block_weights(graph, labels, k).max(initial=0))
    return max(0, heaviest - lmax), cut


def imbalance(graph: Graph, partition: np.ndarray, k: int) -> float:
    """``max_i c(V_i) / ceil(c(V)/k) - 1`` (0.0 means perfectly balanced)."""
    weights = block_weights(graph, partition, k)
    avg = math.ceil(graph.total_node_weight / k)
    return float(weights.max()) / avg - 1.0 if avg else 0.0


def boundary_nodes(graph: Graph, partition: np.ndarray) -> np.ndarray:
    """Ids of nodes adjacent to at least one node of another block."""
    partition = np.asarray(partition)
    src = graph.arc_sources()
    return np.unique(src[partition[src] != partition[graph.adjncy]])


def communication_volume(graph: Graph, partition: np.ndarray) -> int:
    """Total communication volume of the partition.

    For every node ``v``, count the number of distinct blocks other than
    ``partition[v]`` found among its neighbours, and sum over all nodes.
    """
    labels = _labels(graph, partition)
    return _sweep(graph, labels, _label_count(labels))[2]


def max_communication_volume(graph: Graph, partition: np.ndarray, k: int) -> int:
    """Worst per-block communication volume.

    The "more realistic (and more complicated) objective involving the
    block that is worst" the paper's introduction mentions: for each
    block, sum the distinct-foreign-block counts of its nodes; return the
    maximum over blocks.
    """
    partition = np.asarray(partition, dtype=np.int64)
    src = graph.arc_sources()
    nbr_block = partition[graph.adjncy]
    external = nbr_block != partition[src]
    if not external.any():
        return 0
    src = src[external]
    nbr_block = nbr_block[external]
    keys = np.unique(src * np.int64(k) + nbr_block)
    owners = partition[keys // k]
    return int(np.bincount(owners, minlength=k).max())


def max_quotient_degree(graph: Graph, partition: np.ndarray, k: int) -> int:
    """Maximum number of distinct neighbouring blocks of any block."""
    partition = np.asarray(partition, dtype=np.int64)
    src_block = partition[graph.arc_sources()]
    dst_block = partition[graph.adjncy]
    external = src_block != dst_block
    if not external.any():
        return 0
    pairs = np.unique(src_block[external] * np.int64(k) + dst_block[external])
    return int(np.bincount(pairs // k, minlength=k).max())


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of the standard quality metrics for one partition."""

    k: int
    cut: int
    imbalance: float
    boundary_node_count: int
    communication_volume: int
    block_weights: tuple[int, ...]

    @property
    def max_block_weight(self) -> int:
        return max(self.block_weights)

    @property
    def min_block_weight(self) -> int:
        return min(self.block_weights)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"k={self.k} cut={self.cut} imbalance={self.imbalance:.3%} "
            f"boundary={self.boundary_node_count} comm_vol={self.communication_volume}"
        )


def evaluate_partition(graph: Graph, partition: np.ndarray, k: int) -> PartitionQuality:
    """Compute the full :class:`PartitionQuality` bundle.

    One evaluator for every store: this is
    :func:`evaluate_partition_streaming`.
    """
    return evaluate_partition_streaming(graph, partition, k)


def evaluate_partition_streaming(
    graph: Graph, partition: np.ndarray, k: int
) -> PartitionQuality:
    """The quality bundle without materializing the arc arrays.

    One compiled sweep per shard of a sharded store (one over every row
    of a resident graph), so memory stays O(n + k) beyond the shard the
    store maps.  A partition of the wrong length or with a label outside
    ``[0, k)`` raises :class:`~repro.graph.GraphError` naming it.
    """
    labels = _labels(graph, partition)
    cut, boundary, volume = _sweep(graph, labels, k)
    weights = block_weights(graph, labels, k)
    avg = math.ceil(graph.total_node_weight / k)
    return PartitionQuality(
        k=k,
        cut=cut,
        imbalance=float(weights.max()) / avg - 1.0 if avg else 0.0,
        boundary_node_count=boundary,
        communication_volume=volume,
        block_weights=tuple(int(w) for w in weights),
    )
