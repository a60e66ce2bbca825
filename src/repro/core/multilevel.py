"""Sequential cluster-contraction multilevel partitioner.

The algorithm of Meyerhenke, Sanders, Schulz [7] that the paper
parallelises (Section III): coarsen by contracting size-constrained
label-propagation clusterings, partition the coarsest graph, then
uncoarsen with label-propagation refinement on every level.

Repeatedly cluster the current graph with size-constrained label
propagation (:func:`repro.engine.sclp.run_sclp` from singletons, nodes
in ``config.coarsening_ordering``) and contract the clustering; a fine
node takes the block of its coarse representative on the way up, and
because contraction preserves cut and balance the projected partition
scores identically on the finer graph.

The cycle skeleton — level loops, spans, events, phase accounting, the
iterated cycles and the one kept — lives in :mod:`repro.engine.vcycle`,
shared with the distributed pipeline; this module binds its hooks to the
sequential substrate (:class:`LocalVcycleBackend`).  A level is the
:class:`~repro.graph.quotient.ContractionResult` of its contraction.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import LocalBackend
from ..engine.sclp import run_sclp
from ..graph.csr import Graph
from ..graph.ops import degree_statistics
from ..graph.quotient import ContractionResult, contract
from ..kaffpa.driver import kaffpa_partition
from ..metrics.quality import edge_cut, overweight_cut
from .config import PartitionConfig

__all__ = ["LocalVcycleBackend", "detect_social"]


def detect_social(graph: Graph) -> bool:
    """Heuristic class test: heavy degree tail ⇒ social/web network.

    The paper's f factor differs between the two classes (14 vs 20 000);
    the registry knows the class, but auto-detection keeps the public API
    usable on arbitrary graphs.
    """
    stats = degree_statistics(graph)
    return stats.tail_ratio > 4.0


class LocalVcycleBackend:
    """Sequential binding of the V-cycle backend protocol.

    One instance drives every cycle of a run on ``finest``.  ``current``
    tracks the graph of the level being built, from ``finest`` down;
    ``constraint`` (when given) is the seed partition of an iterated
    V-cycle, scatter-projected level by level so clusters never span two
    of its blocks.  After coarsening it is the seed partition on the
    coarsest level, which KaFFPa protects and must not lose to.
    ``lmax`` bounds the initial partition, the refinement and the
    fitness of a finest-level partition.
    """

    emits_events = True

    def __init__(
        self,
        graph: Graph,
        config: PartitionConfig,
        rng: np.random.Generator,
        lmax: int,
    ):
        self.finest = self.current = graph
        self.config = config
        self.rng = rng
        self.lmax = lmax
        self.constraint: np.ndarray | None = None

    def span_kwargs(self) -> dict:
        return {}

    def clock(self) -> float:
        return 0.0

    # --- coarsening ---

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

    def contract(self, labels: np.ndarray) -> ContractionResult:
        return contract(self.current, labels)

    def coarse_size(self, level: ContractionResult) -> int:
        return level.coarse.num_nodes

    def coarsen_level_stats(self, level: ContractionResult) -> dict:
        return {
            "fine_nodes": level.fine.num_nodes,
            "fine_edges": level.fine.num_edges,
            "coarse_nodes": level.coarse.num_nodes,
            "coarse_edges": level.coarse.num_edges,
            "heaviest": int(level.coarse.vwgt.max(initial=0)),
        }

    def descend(self, level: ContractionResult) -> None:
        self.current = level.coarse
        if self.constraint is not None:
            projected = np.zeros(level.coarse.num_nodes, dtype=np.int64)
            projected[level.fine_to_coarse] = self.constraint
            self.constraint = projected

    # --- initial partitioning ---

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

    # --- uncoarsening ---

    def coarsest_refine(self, partition: np.ndarray) -> np.ndarray:
        return self._lp_refine(self.current, partition)

    def project(
        self, level: ContractionResult, partition: np.ndarray
    ) -> np.ndarray:
        return partition[level.fine_to_coarse]

    def refine_level(
        self, level: ContractionResult, partition: np.ndarray
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

    def level_cut(self, level: ContractionResult, partition: np.ndarray) -> int:
        return int(edge_cut(level.fine, partition))

    def release_level(self) -> None:
        pass

    # --- the cycle kept ---

    def fitness(self, partition: np.ndarray) -> tuple[int, int]:
        return overweight_cut(self.finest, partition, self.config.k, self.lmax)
