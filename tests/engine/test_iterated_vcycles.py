"""One iterated-V-cycle loop for both pipelines, and the cycle it keeps.

``repro.engine.vcycle.iterate_vcycles`` runs the cycles of the sequential
pipeline and of every SPMD rank.  The candidates are the seed partition
(if given) and every cycle's result; the one returned is the smallest
under ``(overweight, cut)``, a tie going to the later one.  The tests
make cycle 1 worse on purpose and check that cycle 0's partition comes
back, at p = 1 and at p = 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import partition_graph
from repro.core import fast_config, minimal_config
from repro.core.multilevel import LocalVcycleBackend
from repro.dist.dist_partitioner import SpmdVcycleBackend
from repro.generators import delaunay, rmat
from repro.metrics import edge_cut


def _scramble_cycle_one(monkeypatch, backend_class, node_ids):
    """Make every refinement of cycle 1 return ``node id mod k``: a
    balanced partition with a far larger cut than any refined one."""
    begin, refine = backend_class.begin_coarsening, backend_class.refine_level
    begun: dict = {}  # rank (None sequentially) -> cycles begun

    def rank(backend):
        comm = getattr(backend, "comm", None)
        return None if comm is None else comm.rank

    def counting_begin(self, *args):
        begun[rank(self)] = begun.get(rank(self), 0) + 1
        return begin(self, *args)

    def scrambling_refine(self, level, partition):
        refined = refine(self, level, partition)
        if begun[rank(self)] == 2:
            return node_ids(level) % self.config.k
        return refined

    monkeypatch.setattr(backend_class, "begin_coarsening", counting_begin)
    monkeypatch.setattr(backend_class, "refine_level", scrambling_refine)


@pytest.mark.parametrize("num_pes", [1, 2])
def test_a_worse_last_cycle_is_not_kept(monkeypatch, num_pes):
    g = delaunay(11, seed=1)
    call = dict(num_pes=num_pes, seed=2)
    cycle0 = partition_graph(g, 4, config=minimal_config(k=4), **call)
    if num_pes == 1:
        _scramble_cycle_one(monkeypatch, LocalVcycleBackend,
                            lambda level: np.arange(level.fine.num_nodes))
    else:
        _scramble_cycle_one(monkeypatch, SpmdVcycleBackend,
                            lambda level: level.fine.to_global(np.arange(level.fine.n_total)))
    res = partition_graph(g, 4, config=fast_config(k=4), **call)
    scrambled = np.arange(g.num_nodes) % 4
    assert cycle0.feasible and edge_cut(g, scrambled) > 2 * cycle0.cut
    assert np.array_equal(res.partition, cycle0.partition)


def test_the_sequential_pipeline_reports_its_coarse_sizes():
    g = rmat(12, seed=1)
    res = partition_graph(g, 4, seed=0)
    assert res.coarse_sizes
    assert all(size < g.num_nodes for size in res.coarse_sizes)
