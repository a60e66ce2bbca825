"""Cluster-contraction coarsening: build the multilevel hierarchy.

Repeatedly cluster the current graph with size-constrained label
propagation (:func:`repro.engine.sclp.run_sclp` from singletons, nodes
in ``config.coarsening_ordering``) and contract the clustering
(Section III).  Coarsening stops when the graph is small enough for
initial partitioning (``coarsest_nodes_per_block * k`` nodes) or when a
level fails to shrink the graph (complex networks shrink by orders of
magnitude per level; meshes shrink slowly — both behaviours are
measured in the coarsening-effectiveness bench).

The level loop itself lives in :func:`repro.engine.vcycle.run_coarsening`,
shared with the distributed pipeline; this module binds its hooks to the
sequential substrate (:class:`LocalCoarseningBackend`) and keeps the
standalone :func:`coarsen` entry point used by the benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.backend import LocalBackend
from ..engine.sclp import run_sclp
from ..engine.vcycle import run_coarsening
from ..graph.csr import Graph
from ..graph.quotient import contract as contract_clustering
from ..graph.validation import max_block_weight_bound
from .config import PartitionConfig

__all__ = ["HierarchyLevel", "Hierarchy", "LocalCoarseningBackend", "coarsen"]


@dataclass(frozen=True)
class HierarchyLevel:
    """One coarsening step: ``fine`` was contracted into ``coarse``."""

    fine: Graph
    coarse: Graph
    fine_to_coarse: np.ndarray

    @property
    def shrink_factor(self) -> float:
        """``n_coarse / n_fine`` (small is good)."""
        return self.coarse.num_nodes / max(1, self.fine.num_nodes)


@dataclass(frozen=True)
class Hierarchy:
    """The full multilevel hierarchy, finest first."""

    levels: tuple[HierarchyLevel, ...]
    finest: Graph

    @property
    def coarsest(self) -> Graph:
        return self.levels[-1].coarse if self.levels else self.finest

    @property
    def depth(self) -> int:
        return len(self.levels)

    def project_to_finest(self, coarse_partition: np.ndarray) -> np.ndarray:
        """Map a coarsest-level partition all the way down to the input graph."""
        partition = np.asarray(coarse_partition, dtype=np.int64)
        for level in reversed(self.levels):
            partition = partition[level.fine_to_coarse]
        return partition


class LocalCoarseningBackend:
    """Coarsening half of the V-cycle backend protocol, sequentially.

    ``current`` tracks the graph of the level being built, from ``finest``
    down; ``constraint`` (when given) is the seed partition of an
    iterated V-cycle, scatter-projected level by level so clusters never
    span two of its blocks.
    """

    emits_events = True

    def __init__(self, graph: Graph, config: PartitionConfig, rng: np.random.Generator):
        self.finest = self.current = graph
        self.config = config
        self.rng = rng
        self.constraint: np.ndarray | None = None

    def span_kwargs(self) -> dict:
        return {}

    def clock(self) -> float:
        return 0.0

    def begin_coarsening(self, seed_partition: np.ndarray | None) -> None:
        self.current = self.finest
        self.constraint = seed_partition

    def current_size(self) -> int:
        return self.current.num_nodes

    def max_node_weight(self) -> int:
        return int(self.current.vwgt.max(initial=1))

    def cluster(self, level_bound: int) -> np.ndarray:
        graph = self.current
        return run_sclp(
            LocalBackend(graph, self.rng),
            np.arange(graph.num_nodes, dtype=np.int64),
            # U = max(max c(v), bound): every node fits in some cluster,
            # even on weighted coarse levels
            max(int(graph.vwgt.max(initial=1)), int(level_bound)),
            self.config.coarsening_iterations,
            ordering=self.config.coarsening_ordering,
            constraint=self.constraint,
            chunk=self.config.lp_chunk_size,
            tie_seed=int(self.rng.integers(0, 2**63 - 1)),
        )

    def contract(self, labels: np.ndarray) -> HierarchyLevel:
        result = contract_clustering(self.current, labels)
        return HierarchyLevel(self.current, result.coarse, result.fine_to_coarse)

    def coarse_size(self, level: HierarchyLevel) -> int:
        return level.coarse.num_nodes

    def coarsen_level_stats(self, level: HierarchyLevel) -> dict:
        return {
            "fine_nodes": level.fine.num_nodes,
            "fine_edges": level.fine.num_edges,
            "coarse_nodes": level.coarse.num_nodes,
            "coarse_edges": level.coarse.num_edges,
        }

    def descend(self, level: HierarchyLevel) -> None:
        self.current = level.coarse
        if self.constraint is not None:
            projected = np.zeros(level.coarse.num_nodes, dtype=np.int64)
            projected[level.fine_to_coarse] = self.constraint
            self.constraint = projected


def coarsen(
    graph: Graph,
    config: PartitionConfig,
    rng: np.random.Generator,
    cluster_factor: float,
    constraint: np.ndarray | None = None,
) -> Hierarchy:
    """Build the cluster-contraction hierarchy for one V-cycle.

    Parameters
    ----------
    cluster_factor:
        The factor ``f``; the cluster bound is ``U = Lmax / f``.
    constraint:
        Optional input partition (iterated V-cycles): clusters never span
        two of its blocks, so its cut edges are never contracted.

    Under an enabled tracer this emits the driver's ``coarsen.level``
    spans and events (with ``cycle=None``); no caller traces it.
    """
    lmax = max_block_weight_bound(graph, config.k, config.epsilon)
    backend = LocalCoarseningBackend(graph, config, rng)
    levels, _ = run_coarsening(
        backend, config, lmax, cluster_factor, seed_partition=constraint
    )
    return Hierarchy(tuple(levels), graph)
