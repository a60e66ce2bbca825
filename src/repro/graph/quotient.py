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

:func:`quotient_arcs` relabels the fine arcs through the cluster map and
groups and sums the parallel inter-cluster arcs into canonical CSR (rows
ordered by neighbour): :func:`repro.native.quotient_arcs`, fine nodes
bucketed by coarse node, a counting pass and a filling pass into arrays
of exactly the coarse size, both visiting the source clusters in
ascending order so that every row fills in neighbour order.  It reads
each fine arc ``u -> v`` as ``mapping[v] -> mapping[u]``, i.e. it builds
the quotient of the transpose; every :class:`Graph` is symmetric
(:mod:`repro.graph.validation`), so that is the quotient.  Its oracle is
:func:`repro.graph.build.group_arcs` over the relabelled arcs, which
returns the same three arrays (``tests/graph/test_quotient.py``).  Its
callers are :func:`contract`, :func:`quotient_graph` and the local
quotient of every PE in :mod:`repro.dist.dist_contraction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from .csr import Graph
from .validation import check_labels

__all__ = [
    "ContractionResult", "contract", "normalize_labels", "quotient_arcs", "quotient_graph",
]


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting a clustering.

    Attributes
    ----------
    fine:
        The graph that was contracted.
    coarse:
        The contracted graph.
    fine_to_coarse:
        Length-``n`` array mapping each fine node to its coarse node.
    """

    fine: Graph
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

    coarse = Graph(
        *_quotient(graph, mapping, n_coarse), name=name or f"{graph.name}/coarse"
    )
    return ContractionResult(graph, coarse, mapping)


def quotient_arcs(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    mapping: np.ndarray,
    n_coarse: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xadj, adjncy, adjwgt`` of the quotient of a symmetric CSR under
    ``mapping`` (node -> coarse node in ``[0, n_coarse)``): arcs
    relabelled, self-loops dropped, parallel arcs summed, rows ordered by
    neighbour.  On any CSR it is the quotient of the transpose."""
    return native.quotient_arcs(xadj, adjncy, adjwgt, mapping, n_coarse)


def _quotient(graph: Graph, mapping: np.ndarray, n_coarse: int) -> tuple[np.ndarray, ...]:
    """``xadj, adjncy, vwgt, adjwgt`` of ``graph``'s quotient under ``mapping``."""
    xadj, adjncy, adjwgt = quotient_arcs(
        graph.xadj, graph.adjncy, graph.adjwgt, mapping, n_coarse)
    vwgt = np.bincount(mapping, weights=graph.vwgt, minlength=n_coarse).astype(np.int64)
    return xadj, adjncy, vwgt, adjwgt


def quotient_graph(graph: Graph, partition: np.ndarray, k: int | None = None) -> Graph:
    """Weighted quotient graph of a partition (paper Section II-A).

    Identical to :func:`contract` except block ids are taken as-is (blocks
    that happen to be empty are kept as isolated zero-weight nodes so the
    quotient always has exactly ``k`` nodes).  A label outside ``[0, k)``
    raises :class:`GraphError` naming the first such node.
    """
    partition = np.ascontiguousarray(partition, dtype=np.int64)
    if k is None:
        k = int(partition.max()) + 1 if partition.size else 0
    try:
        arrays = _quotient(graph, partition, k)
    except ValueError:
        check_labels(partition, k)
        raise
    return Graph(*arrays, name=f"{graph.name}/quotient")
