"""The paper's primary contribution: the cluster-contraction multilevel
partitioner (sequential form), whose coarsening and refinement call the
one size-constrained label propagation, :func:`repro.engine.run_sclp`."""

from .clustering import ClusteringResult, cluster_graph, modularity_local_moving
from .coarsening import Hierarchy, HierarchyLevel, coarsen
from .config import PartitionConfig, eco_config, fast_config, minimal_config
from .multilevel import detect_social, multilevel_partition
from .partitioner import sequential_partition
from .projection import project_partition

__all__ = [
    "ClusteringResult",
    "Hierarchy",
    "HierarchyLevel",
    "PartitionConfig",
    "cluster_graph",
    "modularity_local_moving",
    "coarsen",
    "detect_social",
    "eco_config",
    "fast_config",
    "minimal_config",
    "multilevel_partition",
    "project_partition",
    "sequential_partition",
]
