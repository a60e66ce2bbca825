"""Sequential top-level facade over the cluster-contraction partitioner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import check_partition
from ..metrics.quality import PartitionQuality, evaluate_partition
from .config import PartitionConfig, fast_config
from .isolated import around_isolated
from .vcycle import iterated_vcycles

__all__ = ["SequentialResult", "sequential_partition"]


@dataclass(frozen=True)
class SequentialResult:
    """Partition plus its quality metrics and per-cycle trace."""

    partition: np.ndarray
    quality: PartitionQuality
    cuts_per_cycle: tuple[int, ...]

    @property
    def cut(self) -> int:
        return self.quality.cut

    @property
    def imbalance(self) -> float:
        return self.quality.imbalance


def sequential_partition(
    graph: Graph,
    config: PartitionConfig | None = None,
    seed: int = 0,
    input_partition: np.ndarray | None = None,
    validate: bool = True,
) -> SequentialResult:
    """Partition ``graph`` with the sequential cluster-ML algorithm.

    ``input_partition`` feeds an external prepartition into the first
    V-cycle (the paper's future-work scenario).  The V-cycles run on the
    nodes of degree > 0; isolated nodes are placed after them
    (:mod:`repro.core.isolated`).  This is the single-PE reference
    implementation; the distributed system
    (:mod:`repro.dist.dist_partitioner`) must agree with it on quality
    within noise, which the integration tests check.
    """
    config = config or fast_config()
    rng = np.random.default_rng(seed)

    def cycles(part: Graph, lmax: int, seeded):
        trace = iterated_vcycles(part, config, lmax, rng, input_partition=seeded)
        return trace.partition, trace.cuts

    partition, cuts = around_isolated(graph, config, cycles, input_partition, idle=())
    if validate and graph.num_nodes:
        check_partition(graph, partition, config.k, epsilon=None)
    quality = evaluate_partition(graph, partition, config.k)
    return SequentialResult(partition, quality, cuts)
