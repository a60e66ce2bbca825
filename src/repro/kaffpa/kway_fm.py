"""Greedy k-way boundary refinement (the Metis-style local search).

Pass-based: boundary nodes are visited in random order; a node moves to
the neighbouring block with the highest gain if the move strictly reduces
the cut (or keeps it equal while strictly improving the heaviest block)
and respects the balance bound.  Monotone in (cut, max block weight), so
it never worsens a partition — cheap, effective, and exactly what the
matching-based baseline uses on every level.

A pass is one compiled call (:func:`repro.native.kway_refine_pass`) where
the kernels loaded and the Python loop of :func:`_refine_pass` otherwise;
the visit order is drawn here either way, so both return the same
partition and leave ``rng`` in the same state.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..graph.csr import Graph

__all__ = ["greedy_kway_refine"]


def greedy_kway_refine(
    graph: Graph,
    partition: np.ndarray,
    k: int,
    max_block_weight: int,
    rng: np.random.Generator,
    max_passes: int = 3,
) -> np.ndarray:
    """Refine a k-way partition; returns a new partition array."""
    part = np.asarray(partition, dtype=np.int64).copy()
    n = graph.num_nodes
    if n == 0:
        return part

    weights = np.bincount(part, weights=graph.vwgt, minlength=k).astype(np.int64)
    passes = range(max(0, max_passes))
    if native.loaded():
        for _ in passes:
            if native.kway_refine_pass(
                graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
                rng.permutation(n), part, weights, max_block_weight,
            ) == 0:
                break
        return part

    # Plain lists, read once: the loop touches single entries, where a
    # list index beats an ndarray index.
    csr = (graph.xadj.tolist(), graph.adjncy.tolist(), graph.adjwgt.tolist(),
           graph.vwgt.tolist())
    labels, block_weights = part.tolist(), weights.tolist()
    for _ in passes:
        if _refine_pass(rng.permutation(n).tolist(), *csr, labels,
                        block_weights, max_block_weight) == 0:
            break
    return np.asarray(labels, dtype=np.int64)


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
