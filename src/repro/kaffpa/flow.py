"""Flow-based pairwise refinement (the KaFFPa technique of §II-C).

KaHIP's KaFFPa improves partitions with *flow-based methods*: for a pair
of adjacent blocks, a corridor of nodes around their boundary is carved
out, the corridor is turned into an s-t flow network, and the minimum
s-t cut — the best possible relocation of the boundary inside the
corridor — replaces the current boundary if it helps and keeps balance.

This implementation uses SciPy's push-relabel ``maximum_flow`` on the
corridor network:

* corridor: nodes of the two blocks within ``corridor_width`` hops of a
  cut edge between them;
* source side: corridor nodes of block ``a`` that touch block-``a``
  nodes *outside* the corridor (they must stay in ``a``), and
  symmetrically for the sink; if a whole block sits inside the corridor
  one of its nodes is pinned so the cut stays a bipartition;
* each undirected edge of weight ``w`` becomes two directed arcs of
  capacity ``w``; source/sink attachments get effectively infinite
  capacity;
* the new assignment is the min-cut bipartition (source-reachable nodes
  in the residual network stay in ``a``); it is accepted iff it strictly
  reduces the pair's cut and respects ``Lmax``.

Scheduling: every adjacent block pair is visited once per pass in random
order; pairs whose boundary changed get revisited in the next pass
(KaFFPa's active-block idea, simplified).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..metrics.quality import edge_cut

__all__ = ["flow_refine_pair", "flow_refinement"]

_PIN_CAPACITY = np.iinfo(np.int32).max // 4


def _corridor(graph: Graph, partition: np.ndarray, a: int, b: int, width: int) -> np.ndarray:
    """Nodes of blocks a/b within ``width`` hops of an a-b cut edge."""
    src = graph.arc_sources()
    dst = graph.adjncy
    pa, pb = partition[src], partition[dst]
    cut_mask = ((pa == a) & (pb == b)) | ((pa == b) & (pb == a))
    frontier = np.unique(np.concatenate([src[cut_mask], dst[cut_mask]]))
    in_pair = (partition == a) | (partition == b)
    selected = np.zeros(graph.num_nodes, dtype=bool)
    selected[frontier] = True
    for _ in range(max(0, width - 1)):
        grow = selected[src] & ~selected[dst] & in_pair[dst]
        if not grow.any():
            break
        selected[dst[grow]] = True
    selected &= in_pair
    return np.flatnonzero(selected)


def flow_refine_pair(
    graph: Graph,
    partition: np.ndarray,
    a: int,
    b: int,
    max_block_weight: int,
    corridor_width: int = 2,
) -> bool:
    """Min-cut-reposition the boundary between blocks ``a`` and ``b``.

    Mutates ``partition`` in place on success; returns whether the pair's
    cut strictly improved.
    """
    import scipy.sparse as sp  # the one solver of the package that needs it
    from scipy.sparse.csgraph import maximum_flow

    corridor = _corridor(graph, partition, a, b, corridor_width)
    if corridor.size == 0:
        return False
    local_of = {int(v): i for i, v in enumerate(corridor.tolist())}
    n_local = corridor.size
    source, sink = n_local, n_local + 1

    rows: list[int] = []
    cols: list[int] = []
    caps: list[int] = []
    pinned_a = False
    pinned_b = False
    for i, v in enumerate(corridor.tolist()):
        nbrs = graph.neighbors(v)
        wgts = graph.incident_weights(v)
        attach_source = attach_sink = False
        for u, w in zip(nbrs.tolist(), wgts.tolist()):
            j = local_of.get(u)
            if j is not None:
                rows.append(i)
                cols.append(j)
                caps.append(int(w))
            elif partition[u] == a:
                attach_source = True  # anchored to the fixed a-side
            elif partition[u] == b:
                attach_sink = True
        if attach_source:
            rows += [source, i]
            cols += [i, source]
            caps += [_PIN_CAPACITY, _PIN_CAPACITY]
            pinned_a = True
        if attach_sink:
            rows += [i, sink]
            cols += [sink, i]
            caps += [_PIN_CAPACITY, _PIN_CAPACITY]
            pinned_b = True

    block_of_corridor = partition[corridor]
    if not pinned_a:
        # whole block-a side floats: pin its heaviest-degree node
        a_side = np.flatnonzero(block_of_corridor == a)
        if a_side.size == 0:
            return False
        i = int(a_side[np.argmax(graph.degrees[corridor[a_side]])])
        rows += [source, i]
        cols += [i, source]
        caps += [_PIN_CAPACITY, _PIN_CAPACITY]
    if not pinned_b:
        b_side = np.flatnonzero(block_of_corridor == b)
        if b_side.size == 0:
            return False
        i = int(b_side[np.argmax(graph.degrees[corridor[b_side]])])
        rows += [i, sink]
        cols += [sink, i]
        caps += [_PIN_CAPACITY, _PIN_CAPACITY]

    network = sp.csr_matrix(
        (np.asarray(caps, dtype=np.int32),
         (np.asarray(rows), np.asarray(cols))),
        shape=(n_local + 2, n_local + 2),
    )
    result = maximum_flow(network, source, sink)

    # Min cut = source-reachable set in the residual network.
    residual = network - result.flow
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    reach = np.zeros(n_local + 2, dtype=bool)
    stack = [source]
    reach[source] = True
    indptr, indices = residual.indptr, residual.indices
    while stack:
        v = stack.pop()
        for u in indices[indptr[v]:indptr[v + 1]]:
            if not reach[u]:
                reach[u] = True
                stack.append(int(u))

    proposal = partition.copy()
    proposal[corridor] = np.where(reach[:n_local], a, b)

    # Accept iff strictly better on the pair cut and still balanced.
    k = int(partition.max()) + 1
    weights = np.bincount(proposal, weights=graph.vwgt, minlength=k)
    if weights.max() > max_block_weight:
        return False
    # Only corridor nodes of a and b move, and only between a and b: the
    # whole cut changes by exactly what the a-b cut does.
    if edge_cut(graph, proposal) < edge_cut(graph, partition):
        partition[:] = proposal
        return True
    return False


def flow_refinement(
    graph: Graph,
    partition: np.ndarray,
    k: int,
    max_block_weight: int,
    rng: np.random.Generator,
    max_passes: int = 2,
    corridor_width: int = 2,
) -> np.ndarray:
    """Flow-refine all adjacent block pairs; returns a new partition."""
    part = np.asarray(partition, dtype=np.int64).copy()
    src_b = part[graph.arc_sources()]
    dst_b = part[graph.adjncy]
    mask = src_b < dst_b
    active = {
        (int(x), int(y))
        for x, y in zip(src_b[mask].tolist(), dst_b[mask].tolist())
        if x != y
    }
    for _ in range(max(0, max_passes)):
        if not active:
            break
        pairs = sorted(active)
        order = rng.permutation(len(pairs))
        next_active: set[tuple[int, int]] = set()
        for idx in order.tolist():
            a, b = pairs[idx]
            if flow_refine_pair(graph, part, a, b, max_block_weight, corridor_width):
                next_active.add((a, b))
        active = next_active
    return part
