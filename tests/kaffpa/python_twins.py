"""The Python twins of ``_coarse.c``: the coarsest level's oracles.

Each function or class here has the signature of its binding in
:mod:`repro.native` and is the Python loop (or, for the quotient, the
scipy grouping) the package ran before the compiled kernels became
required.  They return the same arrays bit for bit — the differentials
are ``tests/kaffpa/test_native_twins.py`` and
``tests/graph/test_quotient.py`` — and the ``numpy_kernel`` fixture of
``tests/conftest.py`` installs them in place of the bindings.  Random
draws stay with the callers in ``repro.kaffpa``, so a twin leaves the
caller's ``rng`` exactly where the compiled kernel does.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph import Graph
from repro.graph.ops import induced_subgraph

from ..engine.numpy_kernels import group_arcs


def quotient_arcs(xadj, adjncy, adjwgt, mapping, n_coarse):
    """:func:`repro.native.quotient_arcs` as scipy's grouping of the
    relabelled arcs, each read reversed: the quotient of the transpose."""
    src = mapping[np.repeat(np.arange(xadj.size - 1, dtype=np.int64), np.diff(xadj))]
    return group_arcs(n_coarse, mapping[adjncy], src, adjwgt)


def grow(graph: Graph, seed: int, target_weight: int) -> np.ndarray:
    """Greedy graph growing of block 0 from node ``seed``: the frontier is
    a max-heap on gain (external minus internal edge weight of absorbing
    the node), unreached nodes go to the lighter side.  One byte per
    node, 0 where absorbed."""
    n = graph.num_nodes
    # Plain lists, read once: the loop below touches single entries, where
    # a list index beats an ndarray index (and the ``Graph`` properties).
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    adjwgt, vwgt = graph.adjwgt.tolist(), graph.vwgt.tolist()
    in_block = [False] * n
    grown_weight = 0
    # heap of (-gain, tiebreak, node); lazily revalidated
    counter = 0
    heap: list[tuple[int, int, int]] = [(0, counter, seed)]
    gain_of = {seed: 0}

    while heap and grown_weight < target_weight:
        neg_gain, _, v = heapq.heappop(heap)
        if in_block[v] or gain_of.get(v, 0) != -neg_gain:
            continue  # stale entry
        if grown_weight + vwgt[v] > target_weight and grown_weight > 0:
            continue  # would overshoot; try a lighter frontier node
        in_block[v] = True
        grown_weight += vwgt[v]
        for arc in range(xadj[v], xadj[v + 1]):
            u = adjncy[arc]
            if in_block[u]:
                continue
            gain_of[u] = gain_of.get(u, 0) + adjwgt[arc]
            counter += 1
            heapq.heappush(heap, (-gain_of[u], counter, u))

    side = np.ones(n, dtype=np.uint8)
    grown = np.asarray(in_block, dtype=bool)
    side[grown] = 0
    # Absorb any unreached component into the lighter side.
    if grown_weight < target_weight:
        unreached = ~grown & ~np.isin(np.arange(n), list(gain_of))
        for v in np.flatnonzero(unreached).tolist():
            if grown_weight + vwgt[v] <= target_weight:
                side[v] = 0
                grown_weight += vwgt[v]
    return side


class GrowBisection:
    """:class:`repro.native.GrowBisection` on the subgraph it stands for:
    ``induced_subgraph`` of the members, grown by :func:`grow`."""

    def __init__(self, xadj, adjncy, adjwgt, vwgt) -> None:
        self.graph = Graph(xadj, adjncy, vwgt, adjwgt)

    def __call__(self, members, seed: int, target: int) -> np.ndarray:
        sub = self.graph if members is None else induced_subgraph(self.graph, members)[0]
        if not 0 <= seed < sub.num_nodes:
            raise ValueError("a node id is outside its table")
        return grow(sub, seed, target)


def _refine_pass(order, xadj, adjncy, adjwgt, vwgt, labels, weights,
                 max_block_weight) -> int:
    """Visit ``order`` once, updating ``labels``/``weights``; nodes moved."""
    moved = 0
    for v in order:
        begin, end = xadj[v], xadj[v + 1]
        if begin == end:
            continue
        mine = labels[v]
        conn: dict[int, int] = {}
        internal = 0
        for idx in range(begin, end):
            lab = labels[adjncy[idx]]
            w = adjwgt[idx]
            if lab == mine:
                internal += w
            else:
                conn[lab] = conn.get(lab, 0) + w
        if not conn:
            continue  # interior node
        c_v = vwgt[v]
        best_block = -1
        best_gain = 0
        for lab, strength in conn.items():
            if weights[lab] + c_v > max_block_weight:
                continue
            gain = strength - internal
            better = gain > best_gain or (
                gain == best_gain
                and gain >= 0
                and best_block == -1
                and weights[lab] + c_v < weights[mine]
            )
            if better:
                best_gain = gain
                best_block = lab
        if best_block >= 0 and (
            best_gain > 0
            or (best_gain == 0 and weights[best_block] + c_v < weights[mine])
        ):
            weights[mine] -= c_v
            weights[best_block] += c_v
            labels[v] = best_block
            moved += 1
    return moved


def kway_refine_pass(xadj, adjncy, adjwgt, vwgt, order, labels, weights,
                     max_block_weight) -> int:
    """:func:`repro.native.kway_refine_pass`: one pass of
    :func:`_refine_pass`, ``labels``/``weights`` updated in place."""
    as_lists = [labels.tolist(), weights.tolist()]
    moved = _refine_pass(order.tolist(), xadj.tolist(), adjncy.tolist(),
                         adjwgt.tolist(), vwgt.tolist(), *as_lists,
                         max_block_weight)
    labels[:], weights[:] = as_lists
    return moved


def match_heavy_edges(xadj, adjncy, adjwgt, vwgt, constraint, max_pair_weight,
                      order) -> np.ndarray:
    """:func:`repro.native.match_heavy_edges`: visit ``order``; an
    unmatched node matches its unmatched neighbour along the heaviest
    arc (first in arc order on ties)."""
    n = xadj.size - 1
    mate = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    xadj, adjncy = xadj.tolist(), adjncy.tolist()
    adjwgt, vwgt = adjwgt.tolist(), vwgt.tolist()
    constraint_list = None if constraint is None else np.asarray(constraint).tolist()
    bound = max_pair_weight

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
