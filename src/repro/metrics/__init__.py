"""Partition and clustering quality metrics."""

from .modularity import modularity
from .quality import (
    PartitionQuality,
    boundary_nodes,
    communication_volume,
    edge_cut,
    evaluate_partition,
    evaluate_partition_streaming,
    imbalance,
    max_communication_volume,
    max_quotient_degree,
    overweight_cut,
)
from .result import PartitionResult, finish_partition

__all__ = [
    "PartitionQuality",
    "PartitionResult",
    "boundary_nodes",
    "communication_volume",
    "edge_cut",
    "evaluate_partition",
    "evaluate_partition_streaming",
    "finish_partition",
    "imbalance",
    "max_communication_volume",
    "max_quotient_degree",
    "modularity",
    "overweight_cut",
]
