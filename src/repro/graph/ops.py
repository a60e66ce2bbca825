"""Graph operations: subgraphs, components, permutations, statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .build import group_arcs
from .csr import Graph

__all__ = [
    "band_nodes",
    "induced_subgraph",
    "connected_components",
    "largest_component",
    "permute",
    "degree_statistics",
    "DegreeStatistics",
    "average_clustering_sample",
    "is_connected",
]


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by ``nodes``.

    Returns the subgraph (nodes renumbered ``0..len(nodes)-1`` in the
    order given) and the array of original node ids.  Raises
    ``ValueError`` naming an id that is outside the graph or given twice.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    outside = (nodes < 0) | (nodes >= graph.num_nodes)
    if outside.any():
        raise ValueError(
            f"node id {nodes[outside][0]} is outside [0, {graph.num_nodes})")
    new_id = np.full(graph.num_nodes, -1, dtype=np.int64)
    new_id[nodes] = np.arange(nodes.size)
    # a repeated id keeps the position of its last occurrence only
    repeated = new_id[nodes] != np.arange(nodes.size)
    if repeated.any():
        raise ValueError(f"node id {nodes[repeated][0]} is given twice")

    src = graph.arc_sources()
    mask = (new_id[src] >= 0) & (new_id[graph.adjncy] >= 0)
    xadj, adjncy, adjwgt = group_arcs(
        nodes.size, new_id[src[mask]], new_id[graph.adjncy[mask]], graph.adjwgt[mask])
    sub = Graph(xadj, adjncy, graph.vwgt[nodes], adjwgt, name=f"{graph.name}/sub")
    return sub, nodes


def band_nodes(graph: Graph, partition: np.ndarray, distance: int) -> np.ndarray:
    """Nodes within ``distance`` hops of the partition boundary, ascending.

    The band-refinement idea of PT-Scotch (paper §II-B: "the involved
    communication effort is reduced by considering only nodes close to
    the boundary of the current partitioning"): restricting local search
    to the band (``run_sclp(band=)``) loses almost nothing — improving
    moves happen at the boundary — while cutting the scan cost on graphs
    with small cuts.
    """
    partition = np.asarray(partition)
    src = graph.arc_sources()
    cut_arcs = partition[src] != partition[graph.adjncy]
    frontier = np.unique(
        np.concatenate([src[cut_arcs], graph.adjncy[cut_arcs]])
    )
    in_band = np.zeros(graph.num_nodes, dtype=bool)
    in_band[frontier] = True
    for _ in range(max(0, distance - 1)):
        if frontier.size == 0:
            break
        next_mask = np.zeros(graph.num_nodes, dtype=bool)
        arc_from_frontier = in_band[src] & ~in_band[graph.adjncy]
        next_mask[graph.adjncy[arc_from_frontier]] = True
        frontier = np.flatnonzero(next_mask)
        in_band |= next_mask
    return np.flatnonzero(in_band)


def connected_components(graph: Graph) -> tuple[int, np.ndarray]:
    """Number of connected components and per-node component labels."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    if graph.num_nodes == 0:
        return 0, np.empty(0, dtype=np.int64)
    mat = sp.csr_matrix(
        (np.ones(graph.num_arcs, dtype=np.int8), graph.adjncy, graph.xadj),
        shape=(graph.num_nodes, graph.num_nodes),
    )
    count, labels = csgraph.connected_components(mat, directed=False)
    return int(count), labels.astype(np.int64)


def is_connected(graph: Graph) -> bool:
    """Whether the graph has exactly one connected component."""
    count, _ = connected_components(graph)
    return count == 1 or graph.num_nodes <= 1


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by the largest connected component."""
    count, labels = connected_components(graph)
    if count <= 1:
        return graph, np.arange(graph.num_nodes, dtype=np.int64)
    sizes = np.bincount(labels)
    nodes = np.flatnonzero(labels == int(sizes.argmax()))
    return induced_subgraph(graph, nodes)


def permute(graph: Graph, new_order: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Relabel nodes so that old node ``new_order[i]`` becomes node ``i``.

    Returns the permuted graph and the old→new id map.
    """
    new_order = np.asarray(new_order, dtype=np.int64)
    if np.sort(new_order).tolist() != list(range(graph.num_nodes)):
        raise ValueError("new_order must be a permutation of all node ids")
    old_to_new = np.empty(graph.num_nodes, dtype=np.int64)
    old_to_new[new_order] = np.arange(graph.num_nodes)

    xadj, adjncy, adjwgt = group_arcs(
        graph.num_nodes, old_to_new[graph.arc_sources()], old_to_new[graph.adjncy],
        graph.adjwgt)
    return Graph(xadj, adjncy, graph.vwgt[new_order], adjwgt, name=graph.name), old_to_new


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's degree distribution."""

    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    degeneracy_proxy: float  # 90th-percentile degree, a cheap tail indicator

    @property
    def tail_ratio(self) -> float:
        """``max / mean`` — large for power-law (complex) networks."""
        return self.max_degree / self.mean_degree if self.mean_degree else 0.0


def degree_statistics(graph: Graph) -> DegreeStatistics:
    """Compute :class:`DegreeStatistics` for a graph."""
    deg = graph.degrees
    if deg.size == 0:
        return DegreeStatistics(0, 0, 0.0, 0.0, 0.0)
    return DegreeStatistics(
        int(deg.min()),
        int(deg.max()),
        float(deg.mean()),
        float(np.median(deg)),
        float(np.percentile(deg, 90)),
    )


def average_clustering_sample(graph: Graph, samples: int = 512, seed: int = 0) -> float:
    """Estimate the average local clustering coefficient by node sampling.

    Used by the generators' structural self-checks to distinguish the
    paper's two graph classes (social/web graphs cluster strongly; random
    geometric graphs too; Delaunay and grid meshes weakly; RMAT weakly).
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    if n == 0:
        return 0.0
    nodes = rng.choice(n, size=min(samples, n), replace=False)
    total = 0.0
    counted = 0
    neighbor_sets: dict[int, set[int]] = {}

    def nbrs(v: int) -> set[int]:
        cached = neighbor_sets.get(v)
        if cached is None:
            cached = set(graph.neighbors(v).tolist())
            neighbor_sets[v] = cached
        return cached

    for v in nodes:
        adj = graph.neighbors(int(v))
        d = adj.size
        if d < 2:
            continue
        mine = nbrs(int(v))
        links = sum(len(mine & nbrs(int(u))) for u in adj)
        total += links / (d * (d - 1))
        counted += 1
    return total / counted if counted else 0.0
