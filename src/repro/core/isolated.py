"""Isolated nodes leave before the multilevel pipeline and come back last.

Size-constrained label propagation never visits a node without arcs, so
each one would ride every level of the V-cycle as a weight-1 singleton
(11 651 of ``rmat(15, seed=1)``'s 32 768 nodes), and the coarsest-level
partitioners would spend the balance bound on them.  Both pipelines'
entry points — :func:`repro.core.partitioner.sequential_partition` and
the SPMD body :func:`repro.dist.dist_partitioner.parhip_program` — go
through :func:`around_isolated`: the V-cycles partition the subgraph of
the nodes of degree > 0, held to the *full* graph's Lmax, and every
isolated node is then put, heaviest first, into the block that is
lightest at that moment.  Isolated nodes cut nothing, so the cut is the
connected part's.

It is also where a multilevel call's Lmax is decided: once, from the
full graph and ``config.epsilon``.  Every layer below takes that integer
and derives no bound of its own.  And where the caller's
``initial_partition`` is checked, once for both pipelines.

The frame serves the two ParHIP pipelines only.  The baselines share
their exit (:func:`repro.metrics.finish_partition`), not this frame: run
inside it, the ParMetis-like baseline cuts 1.8–1.9x more at k = 2 on
``rmat(15, seed=1)``.  Its bisection grows a block to half the weight of
the graph it is given; with the isolated nodes present they fill most of
the other half for free, without them the connected part is halved
(EXPERIMENTS.md, "The baseline stays out of the isolated-node frame").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

import numpy as np

from ..graph.csr import Graph, GraphError
from ..graph.validation import check_labels, max_block_weight_bound
from .config import PartitionConfig

__all__ = ["around_isolated"]


def around_isolated(
    graph: Graph,
    config: PartitionConfig,
    run: Callable[..., tuple[np.ndarray, Any]],
    seeded: np.ndarray | None = None,
    idle: Any = None,
) -> tuple[np.ndarray, Any]:
    """``run`` on ``graph`` without its isolated nodes, which are placed after.

    ``run(part, lmax, part_seeded)`` gets the connected part, ``graph``'s
    Lmax under ``config`` and ``seeded`` (a partition of ``graph``, or
    None) restricted to the part; it returns ``(labels of part, extra)``.
    This returns the same pair with the labels extended to all of
    ``graph``.  A graph without isolated nodes goes to ``run`` as it is;
    one without arcs never reaches it, and ``idle`` stands in for
    ``extra``.  A ``seeded`` that is not a 1-D integer array of one
    label in ``[0, k)`` per node is a :class:`GraphError` naming
    ``initial_partition``.
    """
    lmax = max_block_weight_bound(graph, config.k, config.epsilon)
    if seeded is not None:
        seeded = np.asarray(seeded)
        if seeded.shape != (graph.num_nodes,) or seeded.dtype.kind not in "iu":
            raise GraphError(
                f"initial_partition must be a 1-D integer array of {graph.num_nodes} "
                f"labels, got dtype {seeded.dtype} and shape {seeded.shape}")
        check_labels(seeded, config.k, "initial_partition: ")
        seeded = seeded.astype(np.int64)
    keep = np.flatnonzero(graph.degrees)
    if keep.size == graph.num_nodes > 0:
        return run(graph, lmax, seeded)
    part_labels, extra = np.zeros(0, dtype=np.int64), idle
    if keep.size:
        part_labels, extra = run(
            _connected_part(graph, keep),
            lmax,
            None if seeded is None else seeded[keep],
        )
    # Built only now: while the V-cycles run, the split holds no more
    # than ``keep`` and the subgraph's own arrays.
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    labels[keep] = part_labels
    weights = np.bincount(part_labels, weights=graph.vwgt[keep], minlength=config.k)
    alone = np.flatnonzero(graph.degrees == 0)
    labels[alone] = _place_isolated(weights.astype(np.int64), graph.vwgt[alone])
    return labels, extra


def _connected_part(graph: Graph, keep: np.ndarray) -> Graph:
    """The subgraph of the nodes ``keep`` (all nodes of degree > 0, ascending).

    No arc is dropped, so the arcs keep their order and weights: only
    ``adjncy`` is relabelled, the one new arc-long array.
    """
    new_id = np.full(graph.num_nodes, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size, dtype=np.int64)
    xadj = np.concatenate(([0], graph.xadj[keep + 1]))
    return Graph(xadj, new_id[graph.adjncy], graph.vwgt[keep], graph.adjwgt,
                 name=graph.name)


def _place_isolated(block_weights: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Blocks for nodes of ``weights`` that have no arcs.

    Heaviest first (ties: lower index), each node goes into the block
    that is lightest at that moment (ties: lowest block id), on top of
    ``block_weights``.  With unit weights the greedy is a water fill,
    computed without a loop over the nodes.
    """
    order = np.argsort(-weights, kind="stable")
    placed = np.empty(weights.size, dtype=np.int64)
    if weights.size and (weights == 1).all():
        placed[order] = _water_fill(block_weights, weights.size)
        return placed
    heap = [(int(w), b) for b, w in enumerate(block_weights)]
    heapq.heapify(heap)
    for v in order:
        w, b = heap[0]
        placed[v] = b
        heapq.heapreplace(heap, (w + int(weights[v]), b))
    return placed


def _water_fill(block_weights: np.ndarray, units: int) -> np.ndarray:
    """The blocks that ``units`` unit-weight placements pick, in pick order.

    The greedy raises the lightest blocks one unit at a time, so pick
    ``i`` is the ``i``-th smallest ``(level, block)`` pair: block ``b``
    takes the levels ``w_b .. L - 1`` for the fill level ``L`` (the
    largest with at most ``units`` units below it), and the units left
    over take level ``L`` in the lowest-id blocks that reach it.
    """
    k = block_weights.size
    ascending = np.sort(block_weights)
    below = np.concatenate(([0], np.cumsum(ascending)))
    # units that lift the j lightest blocks to the j-th lightest weight
    lift = np.arange(1, k + 1) * ascending - below[1:]
    j = int(np.searchsorted(lift, units, side="right"))
    level = (units + int(below[j])) // j
    counts = np.maximum(0, level - block_weights)
    counts[np.flatnonzero(block_weights <= level)[: units - int(counts.sum())]] += 1
    blocks = np.repeat(np.arange(k, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    levels = np.repeat(block_weights - starts, counts) + np.arange(units)
    return blocks[np.argsort(levels * k + blocks)]
