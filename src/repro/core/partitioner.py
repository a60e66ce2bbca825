"""Sequential top-level facade over the cluster-contraction partitioner."""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..metrics.result import PartitionResult, finish_partition
from .config import PartitionConfig, fast_config
from .isolated import around_isolated
from .vcycle import iterated_vcycles

__all__ = ["sequential_partition"]


def sequential_partition(
    graph: Graph,
    config: PartitionConfig | None = None,
    seed: int = 0,
    input_partition: np.ndarray | None = None,
) -> PartitionResult:
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
        return trace.partition, None

    partition, _ = around_isolated(graph, config, cycles, input_partition)
    return finish_partition(graph, partition, config.k, config.epsilon, config)
