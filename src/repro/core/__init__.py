"""The paper's primary contribution: the cluster-contraction multilevel
partitioner (sequential form), whose coarsening and refinement call the
one size-constrained label propagation, :func:`repro.engine.run_sclp`."""

from .clustering import ClusteringResult, cluster_graph, modularity_local_moving
from .config import PartitionConfig, eco_config, fast_config, minimal_config
from .multilevel import LocalVcycleBackend, detect_social
from .partitioner import sequential_partition

__all__ = [
    "ClusteringResult",
    "LocalVcycleBackend",
    "PartitionConfig",
    "cluster_graph",
    "modularity_local_moving",
    "detect_social",
    "eco_config",
    "fast_config",
    "minimal_config",
    "sequential_partition",
]
