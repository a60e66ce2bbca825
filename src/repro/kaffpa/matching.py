"""Heavy-edge matching coarsening (the Metis/KaFFPa scheme).

Nodes are visited in random order; an unmatched node matches its
unmatched neighbour along the heaviest incident edge.  Matched pairs are
contracted (a matching is a clustering with cluster size <= 2, so the
cluster-contraction kernel applies unchanged).

The node loop is one compiled call (:func:`repro.native.match_heavy_edges`;
the visit order is drawn here), whose oracle is the Python loop of
``tests/kaffpa/python_twins.py``.

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
    if n == 0:
        return np.arange(0, dtype=np.int64)
    bound = None if max_node_weight is None else int(max_node_weight)
    order = rng.permutation(n)
    if constraint is not None:
        constraint = np.ascontiguousarray(constraint, dtype=np.int64)
    return native.match_heavy_edges(
        graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt, constraint, bound,
        order)


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
