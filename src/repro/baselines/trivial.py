"""Trivial baselines: hash-based and random balanced partitioning.

The paper motivates the work with the observation that "most large-scale
graph processing toolkits based on cloud computing use ParMetis or rather
straightforward partitioning strategies such as hash-based partitioning.
While hashing often leads to acceptable balance, the edge cut obtained
for complex networks is very high."  These two baselines make that
statement measurable.  Neither takes an imbalance: both are judged at
:data:`EPSILON`, the epsilon of every table row.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..metrics.result import PartitionResult, finish_partition
from ..perf.machine import SERIAL, Machine
from .common import CostLedger

__all__ = ["EPSILON", "hash_partition", "random_partition"]

#: the imbalance the result is judged at: that of every table row
EPSILON = 0.03


def hash_partition(
    graph: Graph,
    k: int,
    num_pes: int = 1,
    machine: Machine | None = None,
    seed: int = 0,
) -> PartitionResult:
    """``block(v) = hash(v) mod k`` — the cloud-toolkit default.

    Uses a Fibonacci-style multiplicative hash so block assignment is
    uncorrelated with node numbering (plain ``v mod k`` would be unfairly
    good on generators with locality in the id space).
    """
    ids = np.arange(graph.num_nodes, dtype=np.uint64) + np.uint64(seed + 1)
    with np.errstate(over="ignore"):  # modular uint64 arithmetic is the point
        golden = np.uint64(0x9E3779B97F4A7C15) * np.uint64(2 * seed + 1)
        hashed = (ids * golden) >> np.uint64(40)
    partition = (hashed % np.uint64(k)).astype(np.int64)
    ledger = CostLedger(machine or SERIAL, num_pes)
    ledger.parallel_work(graph.num_nodes * 0.01)
    return finish_partition(graph, partition, k, EPSILON, num_pes=num_pes,
                            sim_time=ledger.seconds)


def random_partition(
    graph: Graph,
    k: int,
    num_pes: int = 1,
    machine: Machine | None = None,
    seed: int = 0,
) -> PartitionResult:
    """Weight-balanced random assignment (perfect balance, terrible cut)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_nodes)
    partition = np.empty(graph.num_nodes, dtype=np.int64)
    # deal shuffled nodes round-robin: balanced to within one node weight
    partition[order] = np.arange(graph.num_nodes) % k
    ledger = CostLedger(machine or SERIAL, num_pes)
    ledger.parallel_work(graph.num_nodes * 0.01)
    return finish_partition(graph, partition, k, EPSILON, num_pes=num_pes,
                            sim_time=ledger.seconds)
