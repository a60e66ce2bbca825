"""Distributed frontier-sweep tests.

The frontier sweep must reproduce the full sweep label for label on
every PE count and iteration count (the per-iteration identity the
module docstring proves), and the delta interface exchange must never
ship more bytes than the dense one — strictly fewer once LP starts
converging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.engine import SpmdBackend, run_sclp
from repro.generators import rmat


GRAPH = rmat(10, seed=3)
CONSTRAINT = np.random.default_rng(3).integers(0, 2, GRAPH.num_nodes)
LP_OP = "alltoall[lp.labels]"


def cluster_program(comm, chunk, sweep, constrained, delta=True, iterations=3):
    dgraph = DistGraph.from_global(
        GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank
    )
    cons = None
    if constrained:
        cons = np.zeros(dgraph.n_total, dtype=np.int64)
        cons[: dgraph.n_local] = CONSTRAINT[
            dgraph.first : dgraph.first + dgraph.n_local
        ]
        dgraph.halo_exchange(comm, cons)
    init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
    labels = run_sclp(
        SpmdBackend(dgraph, comm), init, 30, iterations, constraint=cons,
        chunk=chunk, pin_sweep=sweep, tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        delta=delta,
    )
    return dgraph.gather_global(comm, labels[: dgraph.n_local])


def refine_program(comm, chunk, sweep, iterations=4, delta=True):
    dgraph = DistGraph.from_global(
        GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank
    )
    start = np.random.default_rng(7).integers(0, 4, GRAPH.num_nodes)
    labels = np.zeros(dgraph.n_total, dtype=np.int64)
    labels[: dgraph.n_local] = start[dgraph.first : dgraph.first + dgraph.n_local]
    dgraph.halo_exchange(comm, labels)
    labels = run_sclp(
        SpmdBackend(dgraph, comm), labels, int(GRAPH.vwgt.sum()) // 4 + 8,
        iterations, refine=True, shares=True, k=4, ordering="random",
        chunk=chunk, pin_sweep=sweep, tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        delta=delta,
    )
    return dgraph.gather_global(comm, labels[: dgraph.n_local])


class TestFrontierIdentity:
    """frontier == full == the mode's own sweep (``sweep=None``), label
    for label, p in {1, 4}."""

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    @pytest.mark.parametrize("sweep", ["frontier", None], ids=["frontier", "mode"])
    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_cluster_mode(self, size, constrained, chunk, sweep):
        full = run_spmd(size, cluster_program, chunk, "full", constrained,
                        seed=1).value
        other = run_spmd(size, cluster_program, chunk, sweep,
                         constrained, seed=1).value
        assert np.array_equal(full, other)

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    @pytest.mark.parametrize("sweep", ["frontier", None], ids=["frontier", "mode"])
    @pytest.mark.parametrize("size", [1, 4])
    def test_refine_mode(self, size, chunk, sweep):
        for iterations in (1, 2, 4):
            full = run_spmd(size, refine_program, chunk, "full", iterations,
                            seed=1).value
            other = run_spmd(size, refine_program, chunk, sweep,
                             iterations, seed=1).value
            assert np.array_equal(full, other), (
                f"labels diverge after {iterations} iteration(s)"
            )


class TestDeltaExchange:
    """The delta wire format is never larger, and shrinks as LP settles."""

    def lp_bytes(self, program, *args, delta):
        result = run_spmd(4, program, *args, delta=delta, seed=1)
        per_rank = [s.per_op.get(LP_OP, (0, 0))[1] for s in result.stats]
        return result.value, sum(per_rank)

    @pytest.mark.parametrize("program,args", [
        (cluster_program, (64, "frontier", False)),
        (refine_program, (64, "frontier")),
    ], ids=["cluster", "refine"])
    def test_delta_never_ships_more(self, program, args):
        labels_dense, dense = self.lp_bytes(program, *args, delta=False)
        labels_delta, delta = self.lp_bytes(program, *args, delta=True)
        assert np.array_equal(labels_dense, labels_delta)
        assert 0 < delta < dense  # strictly fewer bytes over the run

    def per_iteration_bytes(self, delta, max_iter=4):
        # Bytes of iteration k = bytes(run with k iters) - bytes(k - 1).
        totals = []
        for iters in range(1, max_iter + 1):
            result = run_spmd(4, cluster_program, 64, "frontier", False,
                              delta=delta, iterations=iters, seed=1)
            totals.append(sum(
                s.per_op.get(LP_OP, (0, 0))[1] for s in result.stats
            ))
        return [b - a for a, b in zip([0] + totals, totals)]

    def test_late_iterations_strictly_shrink(self):
        dense = self.per_iteration_bytes(delta=False)
        delta = self.per_iteration_bytes(delta=True)
        # The dense payload is constant (interface size); once most
        # labels stop changing the delta payload must dip strictly
        # below it — the issue's acceptance bar for iterations >= 2.
        for k in range(1, len(dense)):
            assert delta[k] < dense[k], (
                f"iteration {k + 1}: delta {delta[k]} >= dense {dense[k]}"
            )
