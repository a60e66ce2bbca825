"""Sequential multilevel partitioner (the KaFFPa engine).

This is the from-scratch stand-in for KaHIP's sequential KaFFPa: a full
multilevel partitioner with

* matching-based coarsening,
* best-of-several initial partitioning (recursive bisection with greedy
  graph growing),
* FM refinement for bisections and greedy k-way boundary refinement
  otherwise, applied on every level during uncoarsening.

Two features make it the engine of the iterated V-cycle (paper §IV-D)
and of the evolutionary combine operator (Section II-C):

* ``constraint`` — a clustering whose cut edges are *never* contracted
  (the matching never merges across it);
* ``seed_partition`` — a partition the result must not lose to.  It is
  always protected: it *is* the constraint when none is given, and a
  given constraint must refine it (every constraint cluster inside one
  seed block), so no cut edge of the seed is ever contracted and the
  seed projects exactly onto the coarsest graph.  There it is kept iff
  it is balanced and no worse than the freshly computed initial
  partition; refinement never worsens, so neither does the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import block_weights
from ..metrics.quality import overweight_cut
from ..obsv.tracer import TRACER
from .fm import fm_bisection_refine
from .initial import best_of
from .kway_fm import greedy_kway_refine
from .matching import contract_matching, heavy_edge_matching

__all__ = ["KaffpaOptions", "kaffpa_partition"]

#: coarsening stops after this many matching levels
MAX_LEVELS = 40
#: matching has stalled when a level keeps at least this share of its nodes
MIN_SHRINK_FACTOR = 0.98


@dataclass(frozen=True)
class KaffpaOptions:
    """Tuning knobs of the sequential engine."""

    coarsest_nodes: int = 60  # stop coarsening below max(this, 4k) nodes
    initial_attempts: int = 4
    refinement_passes: int = 2
    #: additionally run flow-based pairwise refinement (KaFFPa's flow
    #: technique) on levels up to this many nodes; 0 disables flows
    flow_refinement_below: int = 0


def kaffpa_partition(
    graph: Graph,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    options: KaffpaOptions | None = None,
    constraint: np.ndarray | None = None,
    seed_partition: np.ndarray | None = None,
) -> np.ndarray:
    """Partition ``graph`` into ``k`` blocks under the balance bound ``lmax``.

    Raises :class:`ValueError` if both ``seed_partition`` and
    ``constraint`` are given and the constraint does not refine the seed.
    """
    options = options or KaffpaOptions()
    if seed_partition is not None:
        seed_partition = np.asarray(seed_partition, dtype=np.int64)
        if constraint is None:
            constraint = seed_partition
        elif not _refines(constraint, seed_partition):
            raise ValueError(
                "constraint does not refine seed_partition: a constraint "
                "cluster spans two seed blocks, so coarsening would contract "
                "cut edges of the seed"
            )
    target_nodes = max(options.coarsest_nodes, 4 * k)
    # Cap coarse node weights so a balanced partition stays representable:
    # nodes heavier than a fraction of Lmax turn initial partitioning into
    # infeasible bin packing at small eps.
    max_node_weight = max(int(graph.vwgt.max(initial=1)), int(lmax / 4))

    # ------------------------------------------------------------------
    # Coarsening
    # ------------------------------------------------------------------
    levels: list[tuple[Graph, np.ndarray]] = []  # (fine graph, fine_to_coarse)
    current = graph
    with TRACER.span("kaffpa.coarsen", nodes=graph.num_nodes) as coarsen_span:
        while current.num_nodes > target_nodes and len(levels) < MAX_LEVELS:
            mate = heavy_edge_matching(
                current, rng, max_node_weight=max_node_weight, constraint=constraint
            )
            # A pair is one coarse node, so the level's size is known before
            # it is built: a stalled matching is never contracted.
            n = current.num_nodes
            pairs = np.count_nonzero(mate != np.arange(n)) // 2
            if n - pairs >= MIN_SHRINK_FACTOR * n:
                break  # stalled
            result = contract_matching(current, mate)
            levels.append((current, result.fine_to_coarse))
            # No coarse node spans two constraint clusters (hence two seed
            # blocks), so the scatter is an exact projection of both.
            if constraint is not None:
                projected = np.zeros(result.coarse.num_nodes, dtype=np.int64)
                projected[result.fine_to_coarse] = constraint
                constraint = projected
            if seed_partition is not None:
                projected = np.zeros(result.coarse.num_nodes, dtype=np.int64)
                projected[result.fine_to_coarse] = seed_partition
                seed_partition = projected
            current = result.coarse
        coarsen_span.set(levels=len(levels))

    # ------------------------------------------------------------------
    # Initial partitioning (keep the seed if it is balanced and no worse)
    # ------------------------------------------------------------------
    with TRACER.span("kaffpa.initial", nodes=current.num_nodes,
                     attempts=options.initial_attempts):
        partition = best_of(current, k, lmax, rng, attempts=options.initial_attempts)
        if seed_partition is not None:
            seed_key = overweight_cut(current, seed_partition, k, lmax)
            if seed_key[0] == 0 and seed_key <= overweight_cut(current, partition, k, lmax):
                partition = seed_partition

    # ------------------------------------------------------------------
    # Uncoarsening with refinement on every level
    # ------------------------------------------------------------------
    with TRACER.span("kaffpa.refine", nodes=graph.num_nodes, levels=len(levels)):
        partition = _refine(current, partition, k, lmax, rng, options)
        for fine, mapping in reversed(levels):
            partition = partition[mapping]
            partition = _refine(fine, partition, k, lmax, rng, options)
    return partition


def _refine(
    graph: Graph,
    partition: np.ndarray,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    options: KaffpaOptions,
) -> np.ndarray:
    # FM needs a balanced bisection to start from; everything else goes
    # through the greedy k-way boundary refinement.
    if k == 2 and int(block_weights(graph, partition, 2).max(initial=0)) <= lmax:
        partition = fm_bisection_refine(
            graph, partition, lmax, rng, max_passes=options.refinement_passes
        )
    else:
        partition = greedy_kway_refine(
            graph, partition, k, lmax, rng, max_passes=options.refinement_passes
        )
    if 0 < graph.num_nodes <= options.flow_refinement_below:
        from .flow import flow_refinement

        partition = flow_refinement(graph, partition, k, lmax, rng, max_passes=1)
    return partition


def _refines(constraint: np.ndarray, seed: np.ndarray) -> bool:
    """Whether every ``constraint`` cluster lies inside one ``seed`` block."""
    constraint = np.asarray(constraint, dtype=np.int64)
    pairs = constraint * (int(seed.max(initial=0)) + 1) + seed
    return np.unique(pairs).size == np.unique(constraint).size
