"""Structural checks for graphs and partitions.

These checks are the reference semantics the rest of the library is tested
against: a graph must be a symmetric weighted adjacency structure without
self-loops, and a partition must assign every node to a block in
``[0, k)`` and respect the balance constraint
``c(V_i) <= Lmax = (1 + eps) * ceil(c(V) / k)`` (paper Section II-A).

Symmetry is checked here only (:func:`check_graph`), but two compiled
kernels rely on it:

* the quotient fill (``quotient_fill`` in ``repro/native/_coarse.c``)
  reads each arc ``u -> v`` as ``v -> u``, which fills every coarse row in
  neighbour order without a transposition: on an asymmetric CSR it builds
  the quotient of the transpose;
* the frontier marks of an SCLP phase (``scan_phase`` in
  ``repro/native/_scan.c``): a node that moves marks its *out*-neighbours
  active, while the nodes whose best block the move can change are its
  *in*-neighbours: the same set only if every arc has its reverse.
"""

from __future__ import annotations

import math

import numpy as np

from .csr import Graph, GraphError

__all__ = [
    "check_integer",
    "check_graph",
    "check_labels",
    "check_partition",
    "is_valid_partition",
    "max_block_weight_bound",
    "block_weights",
]


def check_integer(name: str, value, least: int = 1) -> int:
    """``value`` if it is an integer >= ``least`` (a bool is not), else a
    ``ValueError`` naming ``name`` and the value."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_graph(graph: Graph, require_positive_weights: bool = True) -> None:
    """Validate the full set of graph invariants; raise :class:`GraphError`.

    Checks (beyond the cheap ones the constructor performs):

    * no self-loops,
    * the arc multiset is symmetric with matching weights
      (``(u, v, w)`` stored iff ``(v, u, w)`` stored),
    * all weights positive (optional; zero node weights are legal for
      some intermediate graphs but never produced by the builders).
    """
    sources = graph.arc_sources()
    if np.any(sources == graph.adjncy):
        raise GraphError("graph contains self-loops")
    if require_positive_weights:
        if graph.num_nodes and graph.vwgt.min() <= 0:
            raise GraphError("node weights must be positive")
        if graph.num_arcs and graph.adjwgt.min() <= 0:
            raise GraphError("edge weights must be positive")
    # Symmetry: sort the (src, dst, w) triples and the (dst, src, w) triples;
    # a symmetric arc multiset yields identical sorted sequences.
    fwd = np.lexsort((graph.adjwgt, graph.adjncy, sources))
    rev = np.lexsort((graph.adjwgt, sources, graph.adjncy))
    if not (
        np.array_equal(sources[fwd], graph.adjncy[rev])
        and np.array_equal(graph.adjncy[fwd], sources[rev])
        and np.array_equal(graph.adjwgt[fwd], graph.adjwgt[rev])
    ):
        raise GraphError("arc multiset is not symmetric")


def check_labels(labels: np.ndarray, k: int, what: str = "") -> None:
    """Raise :class:`GraphError` naming the first node whose label is
    outside ``[0, k)``, if there is one (the message starts with ``what``)."""
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        node = int(bad[0])
        raise GraphError(
            f"{what}node {node} has label {labels[node]}, outside [0, k) for k = {k}"
        )


def block_weights(graph: Graph, partition: np.ndarray, k: int | None = None) -> np.ndarray:
    """Per-block node weight ``c(V_i)`` for a partition array."""
    partition = np.asarray(partition)
    if k is None:
        k = int(partition.max()) + 1 if partition.size else 0
    return np.bincount(partition, weights=graph.vwgt, minlength=k).astype(np.int64)


def max_block_weight_bound(graph: Graph, k: int, epsilon: float) -> int:
    """``Lmax = (1 + eps) * ceil(c(V) / k)`` from the paper, floored to int.

    The paper treats Lmax as a real bound on integer block weights, so we
    use ``floor((1 + eps) * ceil(c(V)/k))`` which admits exactly the same
    integer block weights.
    """
    avg = math.ceil(graph.total_node_weight / k)
    return int(math.floor((1.0 + epsilon) * avg))


def check_partition(
    graph: Graph,
    partition: np.ndarray,
    k: int,
    epsilon: float | None = None,
) -> None:
    """Validate a partition array; raise :class:`GraphError` on violation.

    ``epsilon=None`` skips the balance check (useful for clusterings and
    intermediate states that are allowed to be unbalanced).
    """
    partition = np.asarray(partition)
    if partition.shape != (graph.num_nodes,):
        raise GraphError(
            f"partition must assign every node: expected shape ({graph.num_nodes},), "
            f"got {partition.shape}"
        )
    if graph.num_nodes == 0:
        return
    if partition.min() < 0 or partition.max() >= k:
        raise GraphError(f"block ids must lie in [0, {k})")
    if epsilon is not None:
        bound = max_block_weight_bound(graph, k, epsilon)
        weights = block_weights(graph, partition, k)
        worst = int(weights.max())
        if worst > bound:
            raise GraphError(
                f"balance violated: heaviest block weighs {worst} > Lmax = {bound} "
                f"(k={k}, eps={epsilon})"
            )


def is_valid_partition(
    graph: Graph, partition: np.ndarray, k: int, epsilon: float | None = None
) -> bool:
    """Boolean form of :func:`check_partition`."""
    try:
        check_partition(graph, partition, k, epsilon)
    except GraphError:
        return False
    return True
