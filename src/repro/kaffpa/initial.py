"""Initial partitioning algorithms for the coarsest graph.

"Coarsest" is not "small": matchings stall on complex networks (the
paper's point), so KaFFPa hands these routines the graph it was given
dozens of times per call (on rmat15 that was 12 584 nodes before the
pipelines set isolated nodes apart, a few hundred since).  Greedy
growing therefore runs compiled (:class:`repro.native.GrowBisection`),
and the recursion over it grows inside node subsets of the one graph: no
subgraph is built.  The Python loop it replaced is its oracle in
``tests/kaffpa/python_twins.py``: same partition, same ``rng`` state.
Provided algorithms (all standard KaHIP/Metis building blocks):

* :func:`greedy_graph_growing_bisection` — BFS-like region growing from a
  random seed, always absorbing the frontier node with the best gain,
  until half the total weight is absorbed;
* :func:`recursive_bisection` — k-way via recursive greedy growing
  bisections (the PT-Scotch approach; also used by the baselines);
* :func:`best_of` — repetition wrapper that keeps the best balanced result.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..graph.csr import Graph
from ..graph.ops import induced_subgraph
from ..metrics.quality import overweight_cut

__all__ = [
    "greedy_graph_growing_bisection",
    "recursive_bisection",
    "coordinate_bisection",
    "best_of",
]


def coordinate_bisection(positions: np.ndarray, k: int) -> np.ndarray:
    """Geometric prepartition by recursive coordinate bisection.

    Splits the point set along its longest coordinate axis at the
    weighted median, recursively, until ``k`` blocks exist — the
    "geographic initialisation" the paper suggests feeding into the
    first V-cycle.  Requires node positions, not the graph.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    partition = np.zeros(n, dtype=np.int64)

    def recurse(indices: np.ndarray, first_block: int, blocks: int) -> None:
        if blocks == 1 or indices.size == 0:
            partition[indices] = first_block
            return
        pts = positions[indices]
        spans = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spans))
        order = indices[np.argsort(pts[:, axis], kind="stable")]
        left_blocks = blocks // 2
        split = indices.size * left_blocks // blocks
        recurse(order[:split], first_block, left_blocks)
        recurse(order[split:], first_block + left_blocks, blocks - left_blocks)

    recurse(np.arange(n, dtype=np.int64), 0, k)
    return partition


def greedy_graph_growing_bisection(
    graph: Graph, rng: np.random.Generator, target_weight: int | None = None
) -> np.ndarray:
    """Grow block 0 from a random seed until it reaches ``target_weight``.

    The frontier is a max-heap on gain (external minus internal edge
    weight of absorbing the node) — the classic greedy graph growing of
    Metis.  Unreached nodes (disconnected pieces) are absorbed into the
    lighter side at the end.
    """
    n = graph.num_nodes
    if n == 0:
        return np.ones(0, dtype=np.int64)
    if target_weight is None:
        target_weight = graph.total_node_weight // 2
    grow = native.GrowBisection(graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
    return grow(None, int(rng.integers(0, n)), target_weight).astype(np.int64)


def recursive_bisection(graph: Graph, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-way partition by recursively bisecting with weight ratio ⌊k/2⌋:⌈k/2⌉.

    Each bisection grows inside a node subset of ``graph`` and no
    subgraph is built.  That meets a node's neighbours in ``graph``'s arc
    order where the induced subgraph has them sorted, so it needs sorted
    rows; a graph without them (arcs in file order, say) takes the
    subgraph route.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    partition = np.zeros(graph.num_nodes, dtype=np.int64)
    everyone = np.arange(graph.num_nodes, dtype=np.int64)

    if _rows_sorted(graph):
        vwgt = graph.vwgt
        grow = native.GrowBisection(graph.xadj, graph.adjncy, graph.adjwgt, vwgt)

        # Depth first, left half first: the order of the recursion below,
        # hence of its draws.  A loop, not a closure calling itself: that
        # is a reference cycle, and it would keep ``grow`` and these
        # arrays alive until the cyclic collector next runs — which is
        # rarely, now that an op allocates few Python objects.
        pending = [(everyone, 0, k)]
        while pending:
            members, first_block, blocks = pending.pop()
            if blocks == 1 or members.size == 0:
                partition[members] = first_block
                continue
            left_blocks = blocks // 2
            target = int(vwgt[members].sum()) * left_blocks // blocks
            side = grow(members, int(rng.integers(0, members.size)), target)
            pending.append(
                (members[side == 1], first_block + left_blocks, blocks - left_blocks))
            pending.append((members[side == 0], first_block, left_blocks))
        return partition

    def recurse(sub: Graph, nodes: np.ndarray, first_block: int, blocks: int) -> None:
        if blocks == 1 or sub.num_nodes == 0:
            partition[nodes] = first_block
            return
        left_blocks = blocks // 2
        target = sub.total_node_weight * left_blocks // blocks
        halves = greedy_graph_growing_bisection(sub, rng, target)
        left_nodes = nodes[halves == 0]
        right_nodes = nodes[halves == 1]
        left_sub, _ = induced_subgraph(sub, np.flatnonzero(halves == 0))
        right_sub, _ = induced_subgraph(sub, np.flatnonzero(halves == 1))
        recurse(left_sub, left_nodes, first_block, left_blocks)
        recurse(right_sub, right_nodes, first_block + left_blocks, blocks - left_blocks)

    recurse(graph, everyone, 0, k)
    return partition


def _rows_sorted(graph: Graph) -> bool:
    """Whether every adjacency row is in non-decreasing neighbour order."""
    adjncy = graph.adjncy
    if adjncy.size < 2:
        return True
    descents = adjncy[1:] < adjncy[:-1]
    # a descent is fine exactly where the next row starts
    row_heads = graph.xadj[1:-1]
    descents[row_heads[(row_heads > 0) & (row_heads < adjncy.size)] - 1] = False
    return not descents.any()


def best_of(
    graph: Graph,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    attempts: int = 4,
) -> np.ndarray:
    """Run :func:`recursive_bisection` several times; keep the best (preferring balance).

    Candidates within ``lmax`` are ranked by cut; if no attempt is
    balanced (possible on pathological coarse graphs with huge node
    weights), the least-imbalanced attempt wins.
    """
    best: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    for _ in range(max(1, attempts)):
        candidate = recursive_bisection(graph, k, rng)
        key = overweight_cut(graph, candidate, k, lmax)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    assert best is not None
    return best
