"""Cross-backend equivalence: Local vs Spmd vs Process backends.

The engine contract is that the SPMD hooks degenerate to the local ones
on a single PE, and that the process backend is bit-identical to the
thread backend at any PE count.  These tests pin every stochastic input
(tie seed and visit-order rng) on both sides and assert *bit-identical*
labels across the sweep grid (chunk=1, chunked full, chunked frontier,
the mode's own sweep), one phase and the fast/eco iteration budgets, and
identical edge cuts.  Both backends stop after the first phase in which
no node moved on any rank, so a multi-phase call is one call on either
side.  The p = 1 identity grid runs under both SPMD runtimes, so
``Local == Spmd == Process`` is pinned on the same fixtures; the
process-backend p = 4 runs additionally check the shared-memory CSR path
(including segment cleanup on clean exit and on worker crash).

Sequential refinement defaults to *live* weight accounting while the
distributed regime uses phase-exact weights plus 1/p budget shares;
those regimes differ even at p = 1 (live accounting sees mid-phase
moves, the shares regime does not), so the refine comparisons run the
local backend with ``shares=True`` — the regime the protocol actually
shares.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import pytest

from repro.api import partition_graph
from repro.core import eco_config, fast_config
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.dist.runtime import run_spmd, run_spmd_processes
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.generators import barabasi_albert, delaunay, rgg, rmat, web_copy_graph
from repro.graph.validation import max_block_weight_bound
from repro.metrics.quality import edge_cut
from repro.obsv.tracer import TRACER

from ..conftest import kernel_cache_leftovers

GRAPH_NAMES = ("rmat9", "ba9", "rgg9")
#: (chunk, pinned sweep); ``None`` is the mode's own sweep (the id
#: dates from the per-iteration controller the mode rule replaced)
SWEEP_GRID = [
    pytest.param(1, "full", id="1-full"),
    pytest.param(64, "full", id="64-full"),
    pytest.param(64, "frontier", id="64-frontier"),
    pytest.param(64, None, id="64-adaptive"),
]
#: both SPMD runtimes; at p = 1 each uses its in-process fast path, so
#: the closure-based pinned programs below work under either.
RUNNERS = [run_spmd, run_spmd_processes]
K = 4


@lru_cache(maxsize=None)
def make_graph(name):
    if name == "rmat9":
        return rmat(9, seed=1)
    if name == "ba9":
        return barabasi_albert(512, 4, seed=2)
    if name == "rgg9":
        return rgg(9, seed=3)
    if name == "web_copy":
        return web_copy_graph(32768, out_degree=16, copy_probability=0.8, seed=1)
    if name == "rmat13":
        return rmat(13, seed=1)
    return delaunay(12, seed=1)


def spmd_sclp(graph, labels, bound, iterations, *, order_seed, runner=run_spmd,
              **kwargs):
    """One SCLP call on a dist backend at p = 1, its visit-order stream
    pinned like the local side's.

    ``runner`` picks the runtime: :func:`run_spmd` runs the ranks as
    threads, :func:`run_spmd_processes` as OS processes; both drive the
    same ``SpmdBackend``.
    """

    def program(comm):
        vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
        dg = DistGraph.from_global(graph, vtxdist, comm.rank)
        backend = SpmdBackend(dg, comm)
        backend.rng = np.random.default_rng(order_seed)
        return run_sclp(backend, labels, bound, iterations, **kwargs)[: dg.n_local]

    return runner(1, program, seed=0).value


def local_sclp(graph, labels, bound, iterations, *, order_seed, **kwargs):
    backend = LocalBackend(graph, np.random.default_rng(order_seed))
    return run_sclp(backend, labels, bound, iterations, **kwargs)


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("chunk,sweep", SWEEP_GRID)
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_cluster_iteration_identity(gname, chunk, sweep, runner):
    g = make_graph(gname)
    lmax = max_block_weight_bound(g, K, 0.03)
    bound = max(2, lmax // 10)
    start = np.arange(g.num_nodes, dtype=np.int64)
    kw = dict(ordering="degree", chunk=chunk, pin_sweep=sweep, tie_seed=90,
              order_seed=700)
    local = local_sclp(g, start, bound, 1, **kw)
    spmd = spmd_sclp(g, start, bound, 1, runner=runner, **kw)
    assert np.array_equal(local, spmd)


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("chunk,sweep", SWEEP_GRID)
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_refine_iteration_identity(gname, chunk, sweep, runner):
    g = make_graph(gname)
    lmax = max_block_weight_bound(g, K, 0.03)
    start = np.random.default_rng(42).integers(0, K, size=g.num_nodes)
    kw = dict(refine=True, shares=True, k=K, ordering="random", chunk=chunk,
              pin_sweep=sweep, tie_seed=91, order_seed=701)
    local = local_sclp(g, start, lmax, 1, **kw)
    spmd = spmd_sclp(g, start, lmax, 1, runner=runner, **kw)
    assert np.array_equal(local, spmd)


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("cname,config", [("fast", fast_config), ("eco", eco_config)])
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_refinement_final_cut_identity(gname, cname, config, runner):
    """Iterated refinement (fast/eco budgets): identical labels and cuts."""
    g = make_graph(gname)
    iterations = config(k=K).refinement_iterations
    lmax = max_block_weight_bound(g, K, 0.03)
    start = np.random.default_rng(43).integers(0, K, size=g.num_nodes)
    kw = dict(refine=True, shares=True, k=K, ordering="random", chunk=64,
              pin_sweep="full", tie_seed=92, order_seed=702)
    local = local_sclp(g, start, lmax, iterations, **kw)
    spmd = spmd_sclp(g, start, lmax, iterations, runner=runner, **kw)
    assert np.array_equal(local, spmd)
    assert edge_cut(g, local) == edge_cut(g, spmd)
    # The refinement actually did something on these instances, so the
    # cut identity is not vacuous.
    assert edge_cut(g, local) < edge_cut(g, start)


@pytest.mark.parametrize("mode", ["cluster", "refine"])
@pytest.mark.parametrize("gname", ["web_copy", "rmat13", "delaunay12"])
def test_one_rank_is_the_sequential_sclp(gname, mode):
    """One SPMD rank runs the sequential SCLP label for label over the
    pipeline's iteration budgets: both backends stop after the first
    phase in which no node moved."""
    g = make_graph(gname)
    k = 32
    config = fast_config(k=k)
    lmax = max_block_weight_bound(g, k, 0.03)
    if mode == "cluster":
        start = np.arange(g.num_nodes, dtype=np.int64)
        bound, iterations = max(2, lmax // 14), config.coarsening_iterations
        kw = dict(ordering="degree", tie_seed=93, order_seed=703)
    else:
        start = np.random.default_rng(44).integers(0, k, size=g.num_nodes)
        bound, iterations = lmax, config.refinement_iterations
        kw = dict(refine=True, shares=True, k=k, ordering="random",
                  tie_seed=94, order_seed=704)
    local = local_sclp(g, start, bound, iterations, **kw)
    spmd = spmd_sclp(g, start, bound, iterations, **kw)
    assert np.array_equal(local, spmd)
    assert not np.array_equal(local, start)


# ---------------------------------------------------------------------------
# process backend over real workers (forked ranks + shared-memory CSR)
# ---------------------------------------------------------------------------

def spmd_lp(comm, dgraph, labels, bound, iterations, mode, k, **kwargs):
    """One LP call as the V-cycle hooks make it: ``'cluster'`` in degree
    order, ``'refine'`` with budget shares over ``k`` blocks in random
    order; the tie seed comes from the rank's generator."""
    refine = mode == "refine"
    return run_sclp(
        SpmdBackend(dgraph, comm), labels, bound, iterations, refine=refine,
        shares=refine, k=k if refine else None,
        ordering="random" if refine else "degree",
        tie_seed=int(comm.rng.integers(0, 2**63 - 1)), **kwargs,
    )


def _plp_iterations(comm, graph, mode, k, bound, chunk, sweep, iters):
    """Process-safe program: per-iteration global label snapshots.

    Module-level on purpose — a process rank unpickles it by reference,
    importing this module.
    """
    vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
    dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
    gids = dgraph.to_global(np.arange(dgraph.n_total))
    labels = gids.copy() if mode == "cluster" else gids % k
    snapshots = []
    for _ in range(iters):
        labels = spmd_lp(comm, dgraph, labels, bound, 1, mode, k,
                         chunk=chunk, pin_sweep=sweep)
        snapshots.append(dgraph.gather_global(comm, labels).tolist())
    return snapshots


def _plp_crash(comm, graph, mode, k, bound, chunk, sweep, iters):
    if comm.rank == 1:  # deliberate crash
        os._exit(21)
    return _plp_iterations(comm, graph, mode, k, bound, chunk, sweep, iters)


@pytest.mark.parametrize("size", [1, 4])
@pytest.mark.parametrize("chunk,sweep", [(1, "full"), (64, "frontier")])
@pytest.mark.parametrize("mode", ["cluster", "refine"])
def test_process_matches_threads_per_iteration(no_shm_leak, size, mode, chunk, sweep):
    """Process == Spmd per-iteration labels, clocks, and stats at p=1/p=4.

    Together with the p = 1 Local == Spmd/Process grid above this pins
    the full ``Local == Spmd == Process`` chain on shared fixtures.  The
    p = 4 leg exercises the real process ranks + shared-memory CSR path; the
    leak check pins segment unlinking on clean exit.
    """
    g = make_graph("rmat9")
    lmax = max_block_weight_bound(g, K, 0.03)
    bound = lmax if mode == "refine" else max(2, lmax // 10)
    prog_args = (mode, K, bound, chunk, sweep, 3)
    threads = run_spmd(size, _plp_iterations, g, *prog_args, seed=5)
    procs = run_spmd_processes(size, _plp_iterations, *prog_args,
                               graph=g, seed=5)
    assert procs.per_rank == threads.per_rank
    assert np.array_equal(procs.sim_times, threads.sim_times)
    assert procs.stats == threads.stats


def test_process_shm_unlinked_after_worker_crash(no_shm_leak):
    g = make_graph("rmat9")
    lmax = max_block_weight_bound(g, K, 0.03)
    with pytest.raises(RuntimeError, match=r"rank 1 \(exit code 21\)"):
        run_spmd_processes(4, _plp_crash, "cluster", K, max(2, lmax // 10),
                           64, "frontier", 2, graph=g, seed=5, timeout=60)
    assert kernel_cache_leftovers() == []


def test_parallel_partition_backend_identity(no_shm_leak):
    """The full pipeline: backend='process' == backend='spmd' bit-for-bit."""
    from repro.dist.dist_partitioner import parallel_partition

    g = make_graph("rgg9")
    config = fast_config(k=K)
    spmd = parallel_partition(g, config, num_pes=4, seed=11, backend="spmd")
    proc = parallel_partition(g, config, num_pes=4, seed=11, backend="process")
    assert np.array_equal(spmd.partition, proc.partition)
    assert spmd.sim_time == proc.sim_time


# ---------------------------------------------------------------------------
# the sweep is a function of the mode; the chunk is constant per call
# ---------------------------------------------------------------------------

def _pcluster(comm, graph, sweep, iters):
    """Spawn-safe program: one multi-iteration cluster call under a bound
    generous enough that it converges within ``iters``."""
    vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
    dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
    backend = SpmdBackend(dgraph, comm)
    labels = dgraph.to_global(np.arange(dgraph.n_total))
    labels = run_sclp(
        backend, labels, int(graph.vwgt.sum()), iters,
        refine=False, ordering="degree", chunk=64,
        pin_sweep=sweep, tie_seed=90,
    )
    return dgraph.gather_global(comm, labels[: dgraph.n_local]).tolist()


def _traced(fn):
    TRACER.enable(reset=True)
    try:
        out = fn()
        return out, TRACER.snapshot()
    finally:
        TRACER.disable()


def _lp_calls(records):
    """``lp.iteration`` attrs grouped into ``run_sclp`` calls: a rank's
    spans are in order, and iteration 0 opens a call."""
    calls, current = [], {}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "lp.iteration":
            if record["attrs"]["iteration"] == 0:
                current[record["rank"]] = []
                calls.append(current[record["rank"]])
            current[record["rank"]].append(record["attrs"])
    return calls


RULE_CHUNK = 8


@pytest.mark.parametrize("num_pes,backend", [
    (1, None), (4, "spmd"), (2, "process"),
], ids=["local", "spmd4", "process2"])
def test_sweep_follows_mode_and_chunk_is_constant(no_shm_leak, num_pes, backend):
    """What production callers get (nobody pins a sweep): clustering runs
    the full sweep and refinement the frontier sweep, at one chunk per
    call — the configured one, or the 32-refreshes cap on small levels."""
    config = fast_config(k=K, lp_chunk_size=RULE_CHUNK)
    _, records = _traced(lambda: partition_graph(
        rmat(11, seed=1), K, num_pes=num_pes, backend=backend, seed=3,
        config=config,
    ))
    spans = [r for r in records
             if r.get("type") == "span" and r.get("name") == "lp.iteration"]
    assert {s["attrs"]["mode"] for s in spans} == {"cluster", "refine"}
    for span in spans:
        attrs = span["attrs"]
        assert (attrs["sweep"] == "frontier") == (attrs["mode"] == "refine")
    if num_pes > 1:
        # Rank-less spans come from the sequential initial partitioner,
        # which every rank thread runs at once: their order is not a call
        # order.  The sweep rule above covers them.
        assert {s["rank"] for s in spans} >= set(range(num_pes))
        records = [r for r in records if r.get("rank") is not None]
    capped = set()
    for call in _lp_calls(records):
        # Phase 0 scans every node of the visit order in either sweep.
        limit = max(1, -(-call[0]["active"] // 32))
        assert {a["chunk_size"] for a in call} == {min(RULE_CHUNK, limit)}
        capped.add(limit < RULE_CHUNK)
    assert capped == {False, True}  # both sides of the min ran


def _plp_call(comm, graph, mode, k, bound, rounds):
    """Spawn-safe program: one LP call as the pipeline makes it (no
    sweep pinned, default chunk)."""
    vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
    dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
    gids = dgraph.to_global(np.arange(dgraph.n_total))
    labels = spmd_lp(comm, dgraph, gids.copy() if mode == "cluster" else gids % k,
                     bound, rounds, mode, k)
    return labels[: dgraph.n_local].tolist()


def _allreduces(stats):
    return sum(count for op, (count, _) in stats.per_op.items()
               if op.startswith("allreduce"))


@pytest.mark.parametrize("mode", ["cluster", "refine"])
def test_lp_round_collectives(no_shm_leak, mode):
    """One label exchange per LP round and one allreduce (untagged): the
    convergence count, which under budget shares carries the net block
    inflows that restore the exact weights; under shares one more
    allreduce of the block weights comes up front.  Nothing else in the
    loop may need cross-rank agreement."""
    g = make_graph("rmat9")
    lmax = max_block_weight_bound(g, K, 0.03)
    bound = lmax if mode == "refine" else max(2, lmax // 10)
    rounds = 4
    threads = run_spmd(2, _plp_call, g, mode, K, bound, rounds, seed=5)
    procs = run_spmd_processes(2, _plp_call, mode, K, bound, rounds,
                               graph=g, seed=5)
    assert procs.per_rank == threads.per_rank
    assert procs.stats == threads.stats
    assert np.array_equal(procs.sim_times, threads.sim_times)
    for stats in threads.stats:
        assert not [op for op in stats.per_op if op.startswith("allreduce[")]
        lp_rounds = stats.per_op["alltoall[lp.labels]"][0]
        assert 1 <= lp_rounds <= rounds
        expected = lp_rounds if mode == "cluster" else 1 + lp_rounds
        assert _allreduces(stats) == expected
