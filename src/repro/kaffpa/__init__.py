"""Sequential multilevel partitioning engine (KaFFPa stand-in)."""

from .driver import KaffpaOptions, kaffpa_partition
from .flow import flow_refine_pair, flow_refinement
from .fm import fm_bisection_refine
from .initial import (
    best_of,
    coordinate_bisection,
    greedy_graph_growing_bisection,
    recursive_bisection,
)
from .kway_fm import greedy_kway_refine
from .matching import heavy_edge_matching, match_and_contract

__all__ = [
    "KaffpaOptions",
    "best_of",
    "coordinate_bisection",
    "flow_refine_pair",
    "flow_refinement",
    "fm_bisection_refine",
    "greedy_graph_growing_bisection",
    "greedy_kway_refine",
    "heavy_edge_matching",
    "kaffpa_partition",
    "match_and_contract",
    "recursive_bisection",
]
