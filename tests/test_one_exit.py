"""Every public partitioner returns through one exit, ``finish_partition``.

The eight partitioners return a :class:`PartitionResult` whose quality,
Lmax and feasibility verdict equal an independent evaluation, on the
degenerate inputs too, and an infeasible result warns exactly once.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import partition_graph, partition_oocore
from repro.baselines import hash_partition, parmetis_partition, random_partition, scotch_partition
from repro.core import fast_config, sequential_partition
from repro.dist.dist_partitioner import parallel_partition
from repro.graph import empty_graph, from_edges, max_block_weight_bound
from repro.metrics import PartitionResult, evaluate_partition

K = 4
EPSILON = 0.03  # the default of every partitioner below

PARTITIONERS = {
    "sequential_partition": lambda g: sequential_partition(g, fast_config(k=K)),
    "parallel_partition": lambda g: parallel_partition(g, fast_config(k=K), num_pes=2),
    "partition_graph": lambda g: partition_graph(g, K),
    "partition_oocore": lambda g: partition_oocore(g, K),
    "parmetis_partition": lambda g: parmetis_partition(g, K),
    "scotch_partition": lambda g: scotch_partition(g, K),
    "hash_partition": lambda g: hash_partition(g, K),
    "random_partition": lambda g: random_partition(g, K),
}

GRAPHS = {
    "empty": lambda: empty_graph(0),
    "edgeless": lambda: empty_graph(10),
    "isolated": lambda: from_edges(
        14, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (2, 8)]
    ),
}


@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("name", list(PARTITIONERS))
def test_one_exit(name, graph_name):
    graph = GRAPHS[graph_name]()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = PARTITIONERS[name](graph)
    assert isinstance(res, PartitionResult)
    quality = evaluate_partition(graph, res.partition, K)
    lmax = max_block_weight_bound(graph, K, EPSILON)
    assert res.quality == quality
    assert res.cut == quality.cut
    assert res.lmax == lmax
    feasible = quality.max_block_weight <= lmax
    assert res.feasible is feasible
    verdicts = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "infeasible partition" in str(w.message)]
    assert len(verdicts) == (0 if feasible else 1)
    if not feasible:
        heaviest = int(np.argmax(quality.block_weights))
        assert f"block {heaviest} weighs {quality.max_block_weight} > Lmax = {lmax}" \
            in str(verdicts[0].message)



@pytest.mark.parametrize("name", [*PARTITIONERS, "parallel_partition p4",
                                  "partition_graph p4"])
def test_the_infeasible_warning_names_the_callers_line(name):
    """A node heavier than Lmax makes every partition infeasible; the one
    warning points at the line that called the partitioner (a lambda of
    this file), not into the package, thread ranks (p = 4) included."""
    vwgt = np.ones(16, dtype=np.int64)
    vwgt[5] = 40
    graph = from_edges(16, [(v, v + 1) for v in range(15)], vwgt=vwgt)
    call = {
        **PARTITIONERS,
        "parallel_partition p4": lambda g: parallel_partition(
            g, fast_config(k=K), num_pes=4),
        "partition_graph p4": lambda g: partition_graph(g, K, num_pes=4),
    }[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = call(graph)
    assert not res.feasible
    verdicts = [w for w in caught if "infeasible partition" in str(w.message)]
    assert len(verdicts) == 1
    assert verdicts[0].filename == __file__
    assert verdicts[0].lineno == call.__code__.co_firstlineno
