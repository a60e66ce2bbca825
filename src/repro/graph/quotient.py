"""Quotient-graph / contraction kernel.

Contracting a clustering (paper Section III, Figure 3) replaces every
cluster by a single coarse node whose weight is the summed node weight of
the cluster; coarse edges connect clusters that are adjacent in the fine
graph and carry the summed weight of all fine edges between the two
clusters.  Self-loops (fine edges internal to a cluster) are dropped.

Because a partition of the coarse graph induces a partition of the fine
graph *with the same cut and balance*, this kernel is the correctness
heart of the whole multilevel scheme; it is exercised by dedicated
property-based tests.

The implementation is fully vectorised: fine arcs are relabelled through
the cluster map and parallel inter-cluster arcs are grouped and summed by
a ``scipy.sparse`` COO -> CSR conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .csr import Graph

__all__ = ["ContractionResult", "contract", "normalize_labels", "quotient_graph"]


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting a clustering.

    Attributes
    ----------
    coarse:
        The contracted graph.
    fine_to_coarse:
        Length-``n`` array mapping each fine node to its coarse node.
    """

    coarse: Graph
    fine_to_coarse: np.ndarray


def normalize_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Compress arbitrary cluster ids to the contiguous range ``0..n'-1``.

    Coarse ids are assigned in order of the smallest fine node id in each
    cluster being encountered, i.e. ``np.unique`` order of first
    occurrence is *not* used — we use sorted-unique order, which is
    deterministic and matches the parallel prefix-sum remapping
    (Section IV-C) when node ranges are contiguous.

    Returns the normalised label array and the number of distinct labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    uniq, normalized = np.unique(labels, return_inverse=True)
    return normalized.astype(np.int64), int(uniq.size)


def contract(graph: Graph, labels: np.ndarray, name: str | None = None) -> ContractionResult:
    """Contract ``graph`` according to a cluster-label array.

    Parameters
    ----------
    graph:
        Fine graph.
    labels:
        Length-``n`` array of arbitrary cluster ids (they need not be
        contiguous; they are normalised internally).
    """
    if np.asarray(labels).shape != (graph.num_nodes,):
        raise ValueError("labels must assign a cluster to every node")
    mapping, n_coarse = normalize_labels(labels)

    # Coarse node weights: sum fine node weights per cluster.
    coarse_vwgt = np.bincount(mapping, weights=graph.vwgt, minlength=n_coarse).astype(np.int64)

    # Relabel arcs through the mapping and drop intra-cluster arcs.
    src = mapping[graph.arc_sources()]
    dst = mapping[graph.adjncy]
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], graph.adjwgt[keep]

    if src.size == 0:
        coarse = Graph(
            np.zeros(n_coarse + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            coarse_vwgt,
            np.empty(0, dtype=np.int64),
            name=name or f"{graph.name}/coarse",
        )
        return ContractionResult(coarse, mapping)

    # Group parallel coarse arcs: the COO -> CSR conversion buckets arcs
    # by src (a counting sort, not a comparison sort of all arcs) and sums
    # equal (src, dst) entries; canonical format = rows ordered by dst.
    rows = coo_matrix((wgt, (src, dst)), shape=(n_coarse, n_coarse)).tocsr()
    rows.sum_duplicates()
    xadj = rows.indptr.astype(np.int64, copy=False)
    adjncy = rows.indices.astype(np.int64, copy=False)
    adjwgt = rows.data.astype(np.int64, copy=False)

    coarse = Graph(
        xadj,
        adjncy,
        coarse_vwgt,
        adjwgt,
        name=name or f"{graph.name}/coarse",
    )
    return ContractionResult(coarse, mapping)


def quotient_graph(graph: Graph, partition: np.ndarray, k: int | None = None) -> Graph:
    """Weighted quotient graph of a partition (paper Section II-A).

    Identical to :func:`contract` except block ids are taken as-is (blocks
    that happen to be empty are kept as isolated zero-weight nodes so the
    quotient always has exactly ``k`` nodes).
    """
    partition = np.asarray(partition, dtype=np.int64)
    if k is None:
        k = int(partition.max()) + 1 if partition.size else 0
    result = contract(graph, partition)
    uniq = np.unique(partition)
    if uniq.size == k and (uniq == np.arange(k)).all():
        return result.coarse
    # Re-expand to k nodes: place each present block at its own id.
    coarse = result.coarse
    xadj = np.zeros(k + 1, dtype=np.int64)
    deg = np.zeros(k, dtype=np.int64)
    deg[uniq] = np.diff(coarse.xadj)
    np.cumsum(deg, out=xadj[1:])
    adjncy = uniq[coarse.adjncy]
    vwgt = np.zeros(k, dtype=np.int64)
    vwgt[uniq] = coarse.vwgt
    return Graph(xadj, adjncy, vwgt, coarse.adjwgt, name=f"{graph.name}/quotient")
