"""PT-Scotch-like baseline: multilevel recursive bipartitioning.

PT-Scotch partitions by recursive bisection: a full multilevel 2-way
partitioner (matching coarsening, greedy growing, FM refinement) splits
the graph, then each side is partitioned recursively.  The paper reports
PT-Scotch "consistently worse in terms of solution quality and running
time compared to ParMetis" on this benchmark; the structural reason —
``k - 1`` sequential bisections with little parallelism in the early
ones — is reflected in the cost model (each bisection is charged at its
full subgraph size regardless of the PE count).

Even splits use the full multilevel 2-way engine; odd splits (k not a
power of two) fall back to targeted greedy growing plus FM, which keeps
the weight ratio right at some quality cost — the paper only evaluates
k ∈ {2, 16, 32}, all powers of two.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..graph.ops import induced_subgraph
from ..graph.validation import max_block_weight_bound
from ..kaffpa.driver import KaffpaOptions, kaffpa_partition
from ..kaffpa.fm import fm_bisection_refine
from ..kaffpa.initial import greedy_graph_growing_bisection
from ..metrics.result import PartitionResult, finish_partition
from ..perf.machine import SERIAL, Machine
from .common import CostLedger

__all__ = ["scotch_partition"]


def scotch_partition(
    graph: Graph,
    k: int,
    epsilon: float = 0.03,
    num_pes: int = 1,
    machine: Machine | None = None,
    seed: int = 0,
) -> PartitionResult:
    """Multilevel recursive bisection down to ``k`` blocks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    machine = machine or SERIAL
    rng = np.random.default_rng(seed)
    ledger = CostLedger(machine, num_pes)
    partition = np.zeros(graph.num_nodes, dtype=np.int64)
    engine = KaffpaOptions(refinement_passes=2)
    # PT-Scotch's own tolerance: every sub-bisection is held to at least 5 %
    relaxed = max(epsilon, 0.05)

    def split_even(sub: Graph) -> np.ndarray:
        lmax = max_block_weight_bound(sub, 2, relaxed)
        return kaffpa_partition(sub, 2, lmax, rng, options=engine)

    def split_ratio(sub: Graph, left_blocks: int, blocks: int) -> np.ndarray:
        target = sub.total_node_weight * left_blocks // blocks
        halves = greedy_graph_growing_bisection(sub, rng, target_weight=target)
        bound = int(max(target, sub.total_node_weight - target) * (1 + relaxed))
        return fm_bisection_refine(sub, halves, bound, rng, max_passes=2)

    def bisect(sub: Graph, nodes: np.ndarray, first_block: int, blocks: int) -> None:
        if blocks == 1 or sub.num_nodes == 0:
            partition[nodes] = first_block
            return
        left_blocks = blocks // 2
        halves = (
            split_even(sub)
            if left_blocks * 2 == blocks
            else split_ratio(sub, left_blocks, blocks)
        )
        ledger.parallel_work(sub.num_arcs * 0.6, ghost_fraction=0.08)
        ledger.collectives(4)
        left_mask = halves == 0
        left_sub, _ = induced_subgraph(sub, np.flatnonzero(left_mask))
        right_sub, _ = induced_subgraph(sub, np.flatnonzero(~left_mask))
        bisect(left_sub, nodes[left_mask], first_block, left_blocks)
        bisect(right_sub, nodes[~left_mask], first_block + left_blocks,
               blocks - left_blocks)

    bisect(graph, np.arange(graph.num_nodes, dtype=np.int64), 0, k)
    return finish_partition(graph, partition, k, epsilon, num_pes=num_pes,
                            sim_time=ledger.seconds)
