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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import block_weights

__all__ = [
    "edge_cut",
    "overweight_cut",
    "imbalance",
    "boundary_nodes",
    "communication_volume",
    "max_communication_volume",
    "max_quotient_degree",
    "cut_edges_mask",
    "PartitionQuality",
    "evaluate_partition",
    "evaluate_partition_streaming",
]


def cut_edges_mask(graph: Graph, partition: np.ndarray) -> np.ndarray:
    """Boolean mask over arcs whose endpoints are in different blocks."""
    partition = np.asarray(partition)
    return partition[graph.arc_sources()] != partition[graph.adjncy]


def edge_cut(graph: Graph, partition: np.ndarray) -> int:
    """Total weight of cut edges (each undirected edge counted once)."""
    mask = cut_edges_mask(graph, partition)
    return int(graph.adjwgt[mask].sum()) // 2


def overweight_cut(
    graph: Graph, partition: np.ndarray, k: int, lmax: int
) -> tuple[int, int]:
    """``(max(0, heaviest block - lmax), edge cut)``; smaller is better.

    The one ordering every keep-the-better decision uses: a balanced
    partition beats an overweight one, then the lower cut wins.
    """
    heaviest = int(block_weights(graph, partition, k).max(initial=0))
    return max(0, heaviest - lmax), edge_cut(graph, partition)


def imbalance(graph: Graph, partition: np.ndarray, k: int) -> float:
    """``max_i c(V_i) / ceil(c(V)/k) - 1`` (0.0 means perfectly balanced)."""
    weights = block_weights(graph, partition, k)
    avg = math.ceil(graph.total_node_weight / k)
    return float(weights.max()) / avg - 1.0 if avg else 0.0


def boundary_nodes(graph: Graph, partition: np.ndarray) -> np.ndarray:
    """Ids of nodes adjacent to at least one node of another block."""
    mask = cut_edges_mask(graph, partition)
    return np.unique(graph.arc_sources()[mask])


def communication_volume(graph: Graph, partition: np.ndarray) -> int:
    """Total communication volume of the partition.

    For every node ``v``, count the number of distinct blocks other than
    ``partition[v]`` found among its neighbours, and sum over all nodes.
    """
    partition = np.asarray(partition, dtype=np.int64)
    src = graph.arc_sources()
    nbr_block = partition[graph.adjncy]
    external = nbr_block != partition[src]
    if not external.any():
        return 0
    src = src[external]
    nbr_block = nbr_block[external]
    # Count distinct (node, block) pairs.
    keys = src * (int(partition.max()) + 1) + nbr_block
    return int(np.unique(keys).size)


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


#: Arcs per block of the evaluator's sweep over a resident store.  The
#: sweep's temporaries are this long, not ``num_arcs`` long: the caller's
#: peak memory does not move with the evaluator (measured on the process
#: backend's parent, whose peak RSS went tri-modal over 10 MiB with one
#: whole-graph block — EXPERIMENTS.md 2026-09-29).
BLOCK_ARCS = 1 << 16


def _sweep_bounds(graph: Graph) -> list[int]:
    """Node boundaries of the evaluator's sweep, ``0`` to ``num_nodes``.

    The store's shards where it has any; on a resident store the node
    ranges that hold about :data:`BLOCK_ARCS` arcs each (a node's arcs
    are never split, so a heavier node is a block of its own).
    """
    n = graph.num_nodes
    span = graph.store.chunk_nodes
    if span is not None:
        inner = np.arange(span, n, span)
    else:
        inner = np.searchsorted(
            graph.xadj, np.arange(BLOCK_ARCS, graph.num_arcs, BLOCK_ARCS)
        )
    return np.unique(np.concatenate(([0], inner, [n]))).tolist()


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

    Sweeps the graph one arc block at a time — shard-aligned on a
    sharded store, :data:`BLOCK_ARCS` arcs on a resident one — so
    memory stays O(n + one block).  Every metric decomposes exactly over
    source-node ranges (cut and boundary/volume counts are grouped by
    arc source), so the result is the same on any store and for any
    block size, and equal to the standalone metric functions above
    (test-enforced).
    """
    partition = np.asarray(partition, dtype=np.int64)
    xadj = graph.xadj
    degrees = graph.degrees
    bounds = _sweep_bounds(graph)
    key_base = int(partition.max(initial=0)) + 1
    cut_weight = 0
    boundary = 0
    comm_vol = 0
    for lo, hi in zip(bounds, bounds[1:]):
        nbr, wgt = graph.arc_block(int(xadj[lo]), int(xadj[hi]))
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees[lo:hi])
        external = partition[nbr] != partition[src]
        if not external.any():
            continue
        cut_weight += int(wgt[external].sum())
        ext_src = src[external]
        boundary += int(np.count_nonzero(np.bincount(ext_src - lo)))
        keys = ext_src * key_base + partition[nbr[external]]
        comm_vol += int(np.unique(keys).size)
    weights = block_weights(graph, partition, k)
    avg = math.ceil(graph.total_node_weight / k)
    return PartitionQuality(
        k=k,
        cut=cut_weight // 2,
        imbalance=float(weights.max()) / avg - 1.0 if avg else 0.0,
        boundary_node_count=boundary,
        communication_volume=comm_vol,
        block_weights=tuple(int(w) for w in weights),
    )
