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

Fine arcs are relabelled through the cluster map and the parallel
inter-cluster arcs grouped and summed into canonical CSR (rows ordered by
neighbour).  Where the compiled kernels loaded that is
:func:`repro.native.quotient_arcs` — fine nodes bucketed by coarse node,
a counting pass, a filling pass into arrays of exactly the coarse size;
otherwise a ``scipy.sparse`` COO -> CSR conversion, which returns the
same three arrays and is the oracle of the compiled build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .. import native
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

    Coarse ids follow sorted-unique order of the cluster ids (the smallest
    id becomes 0), which is deterministic and matches the parallel
    prefix-sum remapping (Section IV-C) when node ranges are contiguous.

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

    if native.loaded():
        xadj, adjncy, adjwgt = native.quotient_arcs(
            graph.xadj, graph.adjncy, graph.adjwgt, mapping, n_coarse)
    else:
        xadj, adjncy, adjwgt = _group_arcs(graph, mapping, n_coarse)
    coarse = Graph(
        xadj, adjncy, coarse_vwgt, adjwgt, name=name or f"{graph.name}/coarse"
    )
    return ContractionResult(coarse, mapping)


def _group_arcs(
    graph: Graph, mapping: np.ndarray, n_coarse: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xadj, adjncy, adjwgt`` of the quotient under ``mapping``, by scipy."""
    # Relabel arcs through the mapping and drop intra-cluster arcs.
    src = mapping[graph.arc_sources()]
    dst = mapping[graph.adjncy]
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], graph.adjwgt[keep]
    if src.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(n_coarse + 1, dtype=np.int64), empty, empty

    # Group parallel coarse arcs: the COO -> CSR conversion buckets arcs
    # by src (a counting sort, not a comparison sort of all arcs) and sums
    # equal (src, dst) entries; canonical format = rows ordered by dst.
    rows = coo_matrix((wgt, (src, dst)), shape=(n_coarse, n_coarse)).tocsr()
    rows.sum_duplicates()
    return (
        rows.indptr.astype(np.int64, copy=False),
        rows.indices.astype(np.int64, copy=False),
        rows.data.astype(np.int64, copy=False),
    )


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
