"""Sequential multilevel partitioner (the KaFFPa engine).

This is the from-scratch stand-in for KaHIP's sequential KaFFPa: a full
multilevel partitioner with

* matching-based coarsening,
* best-of-several initial partitioning (recursive bisection with greedy
  graph growing),
* FM refinement for bisections and greedy k-way boundary refinement
  otherwise, applied on every level during uncoarsening.

Two features make it the engine of the evolutionary combine operator
(Section II-C):

* ``constraint`` — a partition whose cut edges are *never* contracted
  (the matching never merges across it);
* ``seed_partition`` — applied to the coarsest graph and kept iff better
  than the freshly computed initial partition; combined with
  non-worsening refinement, the result is never worse than the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import max_block_weight_bound
from ..metrics.quality import edge_cut
from .fm import fm_bisection_refine
from .initial import best_of, recursive_bisection
from .kway_fm import greedy_kway_refine
from .matching import match_and_contract

__all__ = ["KaffpaOptions", "kaffpa_partition"]


@dataclass(frozen=True)
class KaffpaOptions:
    """Tuning knobs of the sequential engine."""

    coarsest_nodes: int = 60  # stop coarsening below max(this, 4k) nodes
    initial_attempts: int = 4
    refinement_passes: int = 2
    max_levels: int = 40
    min_shrink_factor: float = 0.98
    #: additionally run flow-based pairwise refinement (KaFFPa's flow
    #: technique) on levels up to this many nodes; 0 disables flows
    flow_refinement_below: int = 0


def kaffpa_partition(
    graph: Graph,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    options: KaffpaOptions | None = None,
    constraint: np.ndarray | None = None,
    seed_partition: np.ndarray | None = None,
) -> np.ndarray:
    """Partition ``graph`` into ``k`` blocks with the sequential engine."""
    options = options or KaffpaOptions()
    lmax = max_block_weight_bound(graph, k, epsilon)
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
    current_constraint = constraint
    while current.num_nodes > target_nodes and len(levels) < options.max_levels:
        result = match_and_contract(
            current, rng, max_node_weight=max_node_weight, constraint=current_constraint
        )
        if result.coarse.num_nodes >= options.min_shrink_factor * current.num_nodes:
            break  # stalled
        levels.append((current, result.fine_to_coarse))
        if current_constraint is not None:
            projected = np.zeros(result.coarse.num_nodes, dtype=np.int64)
            projected[result.fine_to_coarse] = current_constraint
            current_constraint = projected
        if seed_partition is not None:
            projected_seed = np.zeros(result.coarse.num_nodes, dtype=np.int64)
            projected_seed[result.fine_to_coarse] = seed_partition
            seed_partition = projected_seed
        current = result.coarse

    # ------------------------------------------------------------------
    # Initial partitioning (keep the seed if it is better)
    # ------------------------------------------------------------------
    partition = best_of(
        current, k, epsilon, rng,
        attempts=options.initial_attempts,
        partitioner=lambda g, kk, r: recursive_bisection(g, kk, r),
    )
    if seed_partition is not None and _is_no_worse(current, seed_partition, partition, k, lmax):
        partition = np.asarray(seed_partition, dtype=np.int64)

    # ------------------------------------------------------------------
    # Uncoarsening with refinement on every level
    # ------------------------------------------------------------------
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
    if k == 2:
        heaviest = int(np.bincount(partition, weights=graph.vwgt, minlength=2).max())
        if heaviest <= lmax:
            partition = fm_bisection_refine(
                graph, partition, lmax, rng, max_passes=options.refinement_passes
            )
        else:
            partition = greedy_kway_refine(
                graph, partition, k, lmax, rng, max_passes=options.refinement_passes
            )
    else:
        partition = greedy_kway_refine(
            graph, partition, k, lmax, rng, max_passes=options.refinement_passes
        )
    if 0 < graph.num_nodes <= options.flow_refinement_below:
        from .flow import flow_refinement

        partition = flow_refinement(graph, partition, k, lmax, rng, max_passes=1)
    return partition


def _is_no_worse(
    graph: Graph, seed: np.ndarray, fresh: np.ndarray, k: int, lmax: int
) -> bool:
    """Prefer the seed when it is balanced and cuts no more than ``fresh``."""
    seed_heavy = int(np.bincount(seed, weights=graph.vwgt, minlength=k).max())
    if seed_heavy > lmax:
        return False
    fresh_heavy = int(np.bincount(fresh, weights=graph.vwgt, minlength=k).max())
    if fresh_heavy > lmax:
        return True  # fresh is unbalanced; the balanced seed wins outright
    return edge_cut(graph, seed) <= edge_cut(graph, fresh)
