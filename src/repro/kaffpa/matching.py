"""Heavy-edge matching coarsening (the Metis/KaFFPa scheme).

Nodes are visited in random order; an unmatched node matches its
unmatched neighbour along the heaviest incident edge.  Matched pairs are
contracted (a matching is a clustering with cluster size <= 2, so the
cluster-contraction kernel applies unchanged).

Matching coarsening halves the graph at best — the reason ParMetis's
coarsening stalls on complex networks: a hub's star contributes at most
one matched edge per level, so power-law graphs shrink far slower than
the factor ~2 meshes achieve.  The coarsening-effectiveness bench
measures exactly this contrast against cluster contraction.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..graph.csr import Graph
from ..graph.quotient import ContractionResult, contract

__all__ = ["heavy_edge_matching", "contract_matching", "match_and_contract"]


def heavy_edge_matching(
    graph: Graph,
    rng: np.random.Generator,
    max_node_weight: int | None = None,
    constraint: np.ndarray | None = None,
) -> np.ndarray:
    """Compute a heavy-edge matching; returns ``mate`` (or self if unmatched).

    Parameters
    ----------
    max_node_weight:
        Pairs whose combined weight exceeds this are not matched (keeps
        coarse node weights contractible into a balanced partition).
    constraint:
        Optional partition; edges crossing it are never matched (the
        protected-cut-edge rule of the evolutionary combine operator and
        of iterated V-cycles).
    """
    n = graph.num_nodes
    mate = np.arange(n, dtype=np.int64)
    if n == 0:
        return mate
    bound = None if max_node_weight is None else int(max_node_weight)
    order = rng.permutation(n)
    if native.loaded():
        if constraint is not None:
            constraint = np.ascontiguousarray(constraint, dtype=np.int64)
        return native.match_heavy_edges(
            graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt, constraint,
            bound, order)
    matched = np.zeros(n, dtype=bool)
    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    adjwgt = graph.adjwgt.tolist()
    vwgt = graph.vwgt.tolist()
    constraint_list = None if constraint is None else np.asarray(constraint).tolist()

    for v in order.tolist():
        if matched[v]:
            continue
        best_u = -1
        best_w = -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if matched[u] or u == v:
                continue
            if constraint_list is not None and constraint_list[u] != constraint_list[v]:
                continue
            if bound is not None and vwgt[v] + vwgt[u] > bound:
                continue
            w = adjwgt[idx]
            if w > best_w:
                best_w = w
                best_u = u
        if best_u >= 0:
            mate[v] = best_u
            mate[best_u] = v
            matched[v] = True
            matched[best_u] = True
    return mate


def contract_matching(graph: Graph, mate: np.ndarray) -> ContractionResult:
    """Contract the pairs of ``mate``: a pair is the cluster named by its
    smaller node id."""
    return contract(graph, np.minimum(np.arange(graph.num_nodes, dtype=np.int64), mate))


def match_and_contract(
    graph: Graph,
    rng: np.random.Generator,
    max_node_weight: int | None = None,
    constraint: np.ndarray | None = None,
) -> ContractionResult:
    """One matching-based coarsening level."""
    return contract_matching(
        graph, heavy_edge_matching(graph, rng, max_node_weight, constraint))
