"""Builders that turn edge lists and external formats into :class:`Graph`.

All builders normalise their input the same way: edges are symmetrised,
parallel edges are merged by summing their weights, and self-loops are
dropped.  The result therefore always satisfies the invariants
:mod:`repro.graph.validation` checks.

:func:`group_arcs` is the one arc list -> canonical CSR step of the
package: the builders here, subgraphs and permutations
(:mod:`repro.graph.ops`), the distributed graph and the coarsest replica
(:mod:`repro.dist`) call it.  It is the compiled
:func:`repro.native.group_arcs`; scipy is imported only by
:func:`from_scipy` and :func:`to_scipy`, inside them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .. import native
from .csr import Graph, GraphError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "group_arcs",
    "from_edges",
    "from_coo",
    "from_adjacency",
    "from_scipy",
    "to_scipy",
    "from_networkx",
    "to_networkx",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
]


def group_arcs(
    n: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray,
    mirror: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xadj, adjncy, adjwgt`` of the arc list ``src[i] -> dst[i]`` (weight
    ``wgt[i]``) over ``n`` nodes, in canonical CSR: rows by source, each
    row ordered by neighbour, parallel arcs summed, self-loops dropped.
    Arcs are taken as given unless ``mirror``, which reads each arc in
    both directions (the list plus its reverse, never concatenated).

    Raises :class:`GraphError` naming the first arc with an endpoint
    outside ``[0, n)``.
    """
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    wgt = np.ascontiguousarray(wgt, dtype=np.int64)
    if not src.shape == dst.shape == wgt.shape or src.ndim != 1:
        raise ValueError("src, dst and wgt must be parallel 1-d arrays")
    try:
        return native.group_arcs(int(n), src, dst, wgt, mirror)
    except ValueError as exc:
        raise GraphError(str(exc)) from None


def _nonzero_graph(
    n: int,
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    vwgt: np.ndarray | None,
    name: str,
) -> Graph:
    """A :class:`Graph` of grouped ``arcs`` without the arcs whose weights
    summed to zero (unit node weights unless ``vwgt`` is given)."""
    xadj, adjncy, adjwgt = arcs
    keep = adjwgt != 0
    if not keep.all():
        kept_before = np.zeros(adjwgt.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        xadj, adjncy, adjwgt = kept_before[xadj], adjncy[keep], adjwgt[keep]
    return Graph(
        xadj, adjncy, np.ones(n, dtype=np.int64) if vwgt is None else vwgt, adjwgt,
        name=name,
    )


def from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    weights: Sequence[int] | np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` pairs.

    Parameters
    ----------
    num_nodes:
        Number of nodes; edge endpoints must lie in ``[0, num_nodes)``.
    edges:
        Edge pairs.  Direction is ignored; duplicates (including the
        reverse orientation) are merged by summing weights.
    weights:
        Optional per-edge weights (default 1).
    vwgt:
        Optional node weights (default 1).
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    w = (
        np.ones(arr.shape[0], dtype=np.int64)
        if weights is None
        else np.asarray(weights, dtype=np.int64)
    )
    if w.shape[0] != arr.shape[0]:
        raise ValueError("weights must be parallel to edges")
    return from_coo(num_nodes, arr[:, 0], arr[:, 1], w, vwgt=vwgt, name=name)


def from_coo(
    num_nodes: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from COO-style arrays, symmetrising and deduplicating.

    Every arc is mirrored and the lot grouped once (:func:`group_arcs`
    with ``mirror``), so the weight of an undirected edge present in both
    orientations of the input is counted once per orientation (standard
    COO-duplicate semantics), which lets callers feed either half- or
    full-symmetric inputs as long as they are consistent about it.
    Self-loops and edges whose weights sum to zero are dropped.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if weights is None:
        weights = np.ones(rows.size, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    arcs = group_arcs(num_nodes, rows, cols, weights, mirror=True)
    return _nonzero_graph(num_nodes, arcs, vwgt, name)


def from_scipy(mat: "sp.spmatrix", vwgt: np.ndarray | None = None,
               name: str = "graph") -> Graph:
    """Build a graph from a *symmetric* SciPy sparse matrix.

    The diagonal and entries summing to zero are discarded; duplicate
    entries are summed before the sums are cast to int64.  Symmetry is the
    caller's responsibility (checked cheaply by arc-count parity in
    :class:`Graph` validation and thoroughly by
    :func:`repro.graph.validation.check_graph`).
    """
    import scipy.sparse as sp

    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    n = coo.shape[0]
    return _nonzero_graph(
        n, group_arcs(n, coo.row, coo.col, coo.data.astype(np.int64)), vwgt, name)


def to_scipy(graph: Graph) -> "sp.csr_matrix":
    """Weighted adjacency matrix of ``graph`` as ``scipy.sparse.csr_matrix``."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (graph.adjwgt.astype(np.float64), graph.adjncy, graph.xadj),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def from_adjacency(
    adjacency: Sequence[Sequence[int]],
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from per-node neighbour lists (unit edge weights)."""
    edges: list[tuple[int, int]] = []
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u < v:
                edges.append((u, v))
    return from_edges(len(adjacency), edges, vwgt=vwgt, name=name)


def from_networkx(nx_graph, weight_attr: str = "weight", name: str | None = None) -> Graph:
    """Convert a ``networkx`` graph (nodes relabelled to ``0..n-1``)."""
    import networkx as nx

    relabelled = nx.convert_node_labels_to_integers(nx_graph, ordering="sorted")
    n = relabelled.number_of_nodes()
    edges = []
    weights = []
    for u, v, data in relabelled.edges(data=True):
        edges.append((u, v))
        weights.append(int(data.get(weight_attr, 1)))
    return from_edges(n, edges, weights, name=name or str(nx_graph))


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` with ``weight`` edge attributes."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(graph.num_nodes))
    for u, v, w in graph.edges():
        out.add_edge(u, v, weight=w)
    return out


# ----------------------------------------------------------------------
# Tiny deterministic graphs (used heavily by the test-suite)
# ----------------------------------------------------------------------

def empty_graph(num_nodes: int) -> Graph:
    """Graph with ``num_nodes`` isolated nodes."""
    return Graph.from_csr(np.zeros(num_nodes + 1, dtype=np.int64), np.empty(0, dtype=np.int64))


def complete_graph(num_nodes: int) -> Graph:
    """Complete graph ``K_n`` with unit weights."""
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    return from_edges(num_nodes, edges, name=f"K{num_nodes}")


def path_graph(num_nodes: int) -> Graph:
    """Path ``P_n``."""
    return from_edges(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)], name=f"P{num_nodes}")


def cycle_graph(num_nodes: int) -> Graph:
    """Cycle ``C_n`` (requires ``num_nodes >= 3``)."""
    if num_nodes < 3:
        raise ValueError("a cycle needs at least three nodes")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return from_edges(num_nodes, edges, name=f"C{num_nodes}")


def star_graph(num_leaves: int) -> Graph:
    """Star with one hub (node 0) and ``num_leaves`` leaves."""
    return from_edges(
        num_leaves + 1, [(0, i) for i in range(1, num_leaves + 1)], name=f"S{num_leaves}"
    )
