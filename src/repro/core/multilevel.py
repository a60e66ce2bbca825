"""Sequential cluster-contraction multilevel partitioner.

The algorithm of Meyerhenke, Sanders, Schulz [7] that the paper
parallelises (Section III): coarsen by contracting size-constrained
label-propagation clusterings, partition the coarsest graph, then
uncoarsen with label-propagation refinement on every level.  One call is
one V-cycle; :mod:`repro.core.vcycle` iterates it.

The cycle skeleton — level loops, spans, events, phase accounting —
lives in :func:`repro.engine.vcycle.run_vcycle`, shared with the
distributed pipeline; this module binds its hooks to the sequential
substrate (:class:`LocalVcycleBackend`) and keeps the public API.
"""

from __future__ import annotations

import numpy as np

from ..engine.vcycle import run_vcycle
from ..graph.csr import Graph
from ..graph.ops import degree_statistics
from ..graph.validation import max_block_weight_bound
from ..kaffpa.driver import KaffpaOptions, kaffpa_partition
from ..metrics.quality import edge_cut
from .coarsening import HierarchyLevel, LocalCoarseningBackend
from .config import PartitionConfig
from .label_propagation import label_propagation_refinement
from .projection import project_partition

__all__ = ["LocalVcycleBackend", "detect_social", "multilevel_partition"]


def detect_social(graph: Graph) -> bool:
    """Heuristic class test: heavy degree tail ⇒ social/web network.

    The paper's f factor differs between the two classes (14 vs 20 000);
    the registry knows the class, but auto-detection keeps the public API
    usable on arbitrary graphs.
    """
    stats = degree_statistics(graph)
    return stats.tail_ratio > 4.0


class LocalVcycleBackend(LocalCoarseningBackend):
    """Sequential binding of the full V-cycle backend protocol.

    Extends the coarsening hooks with initial partitioning (KaFFPa on
    the coarsest graph, seeded by the projected input partition of an
    iterated V-cycle) and per-level LP refinement.  After coarsening,
    ``constraint`` holds the input partition projected to the coarsest
    level — exactly the seed the initial partitioner must not lose to.
    """

    def __init__(
        self,
        graph: Graph,
        config: PartitionConfig,
        rng: np.random.Generator,
        input_partition: np.ndarray | None,
        lmax: int,
    ):
        super().__init__(graph, config, rng, constraint=input_partition)
        self.lmax = lmax

    def initial_partition(self) -> np.ndarray:
        k = self.config.k
        return kaffpa_partition(
            self.current,
            k,
            self.config.epsilon,
            self.rng,
            options=KaffpaOptions(coarsest_nodes=max(40, 4 * k)),
            seed_partition=self.constraint,
        )

    def initial_stats(self, partition: np.ndarray) -> tuple[int, int]:
        return self.current.num_nodes, int(edge_cut(self.current, partition))

    def coarsest_refine(self, partition: np.ndarray) -> np.ndarray:
        return label_propagation_refinement(
            self.current,
            partition,
            self.lmax,
            self.config.refinement_iterations,
            self.rng,
            chunk_size=self.config.lp_chunk_size,
        )

    def initial_cut_fields(
        self, partition: np.ndarray, stats: tuple[int, int]
    ) -> dict:
        nodes, cut = stats
        return {
            "nodes": nodes,
            "cut": cut,
            "cut_refined": int(edge_cut(self.current, partition)),
        }

    def project(
        self, level: HierarchyLevel, partition: np.ndarray
    ) -> np.ndarray:
        return project_partition(partition, level.fine_to_coarse)

    def refine_level(
        self, level: HierarchyLevel, partition: np.ndarray
    ) -> np.ndarray:
        return label_propagation_refinement(
            level.fine,
            partition,
            self.lmax,
            self.config.refinement_iterations,
            self.rng,
            chunk_size=self.config.lp_chunk_size,
        )

    def level_cut(self, level: HierarchyLevel, partition: np.ndarray) -> int:
        return int(edge_cut(level.fine, partition))

    def level_nodes(self, level: HierarchyLevel) -> int:
        return level.fine.num_nodes

    def release_level(self) -> None:
        pass


def multilevel_partition(
    graph: Graph,
    config: PartitionConfig,
    rng: np.random.Generator,
    cluster_factor: float | None = None,
    input_partition: np.ndarray | None = None,
    _depth: int = 0,
    _trace_cycle: int | None = None,
) -> np.ndarray:
    """One multilevel cycle; returns a k-partition of ``graph``.

    With ``input_partition`` given, its cut edges are never contracted
    (V-cycle rule), it seeds the coarsest-level partitioner, and the
    result is never worse than it.  ``config.cycle_type='W'`` adds one
    extra protected recursion per level during uncoarsening on levels
    below ``config.wcycle_node_limit`` nodes (the "more complex cycles"
    of Sanders/Schulz, ESA'11 — paper reference [34]).
    """
    k = config.k
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    social = config.social if config.social is not None else detect_social(graph)
    if cluster_factor is None:
        cluster_factor = config.cluster_factor(0, social, rng)
    lmax = max_block_weight_bound(graph, k, config.epsilon)

    # Only the outermost call emits pipeline spans/events: W-cycle
    # recursions are inner detail and would double-count phase times.
    top = _depth == 0

    backend = LocalVcycleBackend(graph, config, rng, input_partition, lmax)

    wcycle_hook = None
    if config.cycle_type == "W" and _depth == 0:

        def wcycle_hook(level: HierarchyLevel, partition: np.ndarray) -> np.ndarray:
            if level.fine.num_nodes > config.wcycle_node_limit:
                return partition
            # W-cycle: one protected recursion from this level; keep the
            # result iff it is no worse (it cannot be, given a balanced
            # partition, but tie-break defensively like the V-cycle loop).
            recursed = multilevel_partition(
                level.fine, config, rng,
                cluster_factor=cluster_factor,
                input_partition=partition,
                _depth=_depth + 1,
            )
            heavy = int(np.bincount(recursed, weights=level.fine.vwgt,
                                    minlength=k).max())
            if heavy <= lmax and edge_cut(level.fine, recursed) <= edge_cut(
                level.fine, partition
            ):
                return recursed
            return partition

    # Floor of 2 on the cluster bound: see the note in coarsening.coarsen.
    result = run_vcycle(
        backend,
        config,
        lmax,
        max(2, int(lmax / cluster_factor)),
        cycle=_trace_cycle,
        top=top,
        wcycle_hook=wcycle_hook,
    )
    return result.partition
