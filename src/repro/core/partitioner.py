"""Sequential top-level facade over the cluster-contraction partitioner."""

from __future__ import annotations

import numpy as np

from ..engine.vcycle import iterate_vcycles
from ..graph.csr import Graph
from ..metrics.result import PartitionResult, finish_partition
from .config import PartitionConfig, fast_config
from .isolated import around_isolated
from .multilevel import LocalVcycleBackend, detect_social

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
        social = config.social if config.social is not None else detect_social(part)
        run = iterate_vcycles(
            LocalVcycleBackend(part, config, rng, lmax), config, lmax,
            lambda cycle: config.cluster_factor(cycle, social, rng), seeded,
        )
        return run.partition, run.coarse_sizes

    partition, coarse_sizes = around_isolated(graph, config, cycles, input_partition,
                                              idle=())
    return finish_partition(graph, partition, config.k, config.epsilon, config,
                            coarse_sizes=coarse_sizes)
