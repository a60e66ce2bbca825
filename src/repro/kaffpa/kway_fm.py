"""Greedy k-way boundary refinement (the Metis-style local search).

Pass-based: boundary nodes are visited in random order; a node moves to
the neighbouring block with the highest gain if the move strictly reduces
the cut (or keeps it equal while strictly improving the heaviest block)
and respects the balance bound.  Monotone in (cut, max block weight), so
it never worsens a partition — cheap, effective, and exactly what the
matching-based baseline uses on every level.

A pass is one compiled call (:func:`repro.native.kway_refine_pass`); the
visit order is drawn here.  The Python loop it replaced is its oracle in
``tests/kaffpa/python_twins.py``: same partition, same ``rng`` state.
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
    for _ in range(max(0, max_passes)):
        if native.kway_refine_pass(
            graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
            rng.permutation(n), part, weights, max_block_weight,
        ) == 0:
            break
    return part
