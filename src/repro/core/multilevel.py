"""Sequential cluster-contraction multilevel partitioner.

The algorithm of Meyerhenke, Sanders, Schulz [7] that the paper
parallelises (Section III): coarsen by contracting size-constrained
label-propagation clusterings, partition the coarsest graph, then
uncoarsen with label-propagation refinement on every level.  One call is
one V-cycle — given an input partition it protects it and builds on it.

The cycle skeleton — level loops, spans, events, phase accounting, the
iterated cycles and the one kept — lives in :mod:`repro.engine.vcycle`,
shared with the distributed pipeline; this module binds its hooks to the
sequential substrate (:class:`LocalVcycleBackend`) and keeps the public
API.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import LocalBackend
from ..engine.sclp import run_sclp
from ..engine.vcycle import run_vcycle
from ..graph.csr import Graph
from ..graph.ops import degree_statistics
from ..kaffpa.driver import kaffpa_partition
from ..metrics.quality import edge_cut, overweight_cut
from .coarsening import HierarchyLevel, LocalCoarseningBackend
from .config import PartitionConfig
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
    the coarsest graph, seeded by the projected seed partition of an
    iterated V-cycle), per-level LP refinement and the fitness of a
    finest-level partition.  After coarsening, ``constraint`` holds the
    seed partition projected to the coarsest level — the seed KaFFPa
    protects and must not lose to.
    """

    def __init__(
        self,
        graph: Graph,
        config: PartitionConfig,
        rng: np.random.Generator,
        lmax: int,
    ):
        super().__init__(graph, config, rng)
        self.lmax = lmax

    def initial_partition(self) -> np.ndarray:
        return kaffpa_partition(
            self.current,
            self.config.k,
            self.lmax,
            self.rng,
            options=self.config.coarsest_engine(),
            seed_partition=self.constraint,
        )

    def coarsest_cut(self, partition: np.ndarray) -> int:
        return int(edge_cut(self.current, partition))

    def coarsest_refine(self, partition: np.ndarray) -> np.ndarray:
        return self._lp_refine(self.current, partition)

    def project(
        self, level: HierarchyLevel, partition: np.ndarray
    ) -> np.ndarray:
        return project_partition(partition, level.fine_to_coarse)

    def refine_level(
        self, level: HierarchyLevel, partition: np.ndarray
    ) -> np.ndarray:
        return self._lp_refine(level.fine, partition)

    def _lp_refine(self, graph: Graph, partition: np.ndarray) -> np.ndarray:
        # The hard bound Lmax, random order, overloaded blocks evicted.
        return run_sclp(
            LocalBackend(graph, self.rng),
            partition,
            self.lmax,
            self.config.refinement_iterations,
            refine=True,
            ordering="random",
            chunk=self.config.lp_chunk_size,
            tie_seed=int(self.rng.integers(0, 2**63 - 1)),
        )

    def level_cut(self, level: HierarchyLevel, partition: np.ndarray) -> int:
        return int(edge_cut(level.fine, partition))

    def release_level(self) -> None:
        pass

    def fitness(self, partition: np.ndarray) -> tuple[int, int]:
        return overweight_cut(self.finest, partition, self.config.k, self.lmax)


def multilevel_partition(
    graph: Graph,
    config: PartitionConfig,
    lmax: int,
    rng: np.random.Generator,
    cluster_factor: float | None = None,
    input_partition: np.ndarray | None = None,
    cycle: int | None = None,
) -> np.ndarray:
    """One multilevel V-cycle; returns a k-partition of ``graph``.

    ``lmax`` is the balance bound of every phase: cluster bound,
    coarsest-level partitioner and refinement.  With ``input_partition``
    given, its cut edges are never contracted (V-cycle rule), it seeds
    the coarsest-level partitioner, and the cycle starts uncoarsening
    from it or from something better.
    ``cycle`` labels the pipeline spans and events of a traced run.
    """
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    if cluster_factor is None:
        social = config.social if config.social is not None else detect_social(graph)
        cluster_factor = config.cluster_factor(0, social, rng)
    backend = LocalVcycleBackend(graph, config, rng, lmax)
    return run_vcycle(
        backend, config, lmax, cluster_factor, cycle=cycle,
        seed_partition=input_partition,
    ).partition
