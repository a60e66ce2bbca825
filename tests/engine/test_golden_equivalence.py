"""Golden equivalence gate for the backend-abstracted engine.

``golden_partitions.json`` holds SHA-256 digests of seeded label arrays
(``tools/capture_golden_partitions.py``).  The ``*/chunk64/*``,
``parallel/*`` and ``parallel_cut/*`` values were frozen on the last
revision with separate sequential and distributed pipelines: replaying
them byte for byte is the proof that neither the engine refactor nor the
collapse to one SCLP loop moved the hashed-tie-break path.  Their p = 1
keys (and those of ``par_lp_*``) were recaptured once, when the SPMD
stop rule became the sequential one (no node moved on any rank, not no
interface label changed): one rank stopped after its first phase
before.  The p = 4 keys never moved.  The ``*/chunk1/*``, ``lp_band/*`` and
``multilevel/*`` values were recaptured when the node-at-a-time regime
switched from RNG-stream to hash tie-breaking; they pin that regime
against drift from here on (its *correctness* is pinned against the
reference oracle in ``tests/core/test_lp_kernels.py``).
``parallel_work/rmat10/fast/p4`` pins what no label hash can see: the
summed ``CommStats.work_units`` of that instance.  Since the pipelines
set isolated nodes apart, the ``parallel/*`` keys replay ``parhip_vcycles``
(the distributed V-cycles on the whole graph, which ``parhip_program``
was before) and no key moved; ``api/*`` and ``api_cut/*`` were added to
pin the public call with the split.  The ``lp_*`` and ``par_lp_*`` keys
replay ``run_sclp`` called as the pipeline's LP hooks call it: their
start labels and bound, one tie-seed draw from the caller's generator
just before the call.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core import LocalVcycleBackend, detect_social, eco_config, fast_config
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.dist.dist_partitioner import parhip_vcycles
from repro.dist.runtime import run_spmd
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.engine.vcycle import run_vcycle
from repro.generators import barabasi_albert, rgg, rmat
from repro.graph.ops import band_nodes
from repro.graph.validation import max_block_weight_bound
from repro.metrics import edge_cut

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_partitions.json").read_text()
)

GRAPH_NAMES = ("rmat10", "ba10", "rgg10")
CONFIGS = {"fast": fast_config, "eco": eco_config}
# (chunk_size, pinned sweep, golden key label).  Every row pins its
# sweep: the goldens freeze one sweep at exactly that chunk, with no
# controller probes in between.
CHUNK_GRID = [
    (1, "full", "auto"),
    (64, "full", "full"),
    (64, "frontier", "frontier"),
]


@lru_cache(maxsize=None)
def make_graph(name):
    if name == "rmat10":
        return rmat(10, seed=1)
    if name == "ba10":
        return barabasi_albert(1024, 4, seed=2)
    return rgg(10, seed=3)


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    ).hexdigest()


def tie_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


@pytest.mark.parametrize("chunk,sweep,label", CHUNK_GRID)
@pytest.mark.parametrize("gname", GRAPH_NAMES)
class TestSequentialLP:
    def test_cluster(self, gname, chunk, sweep, label):
        g = make_graph(gname)
        lmax = max_block_weight_bound(g, 4, 0.03)
        rng = np.random.default_rng(7)
        # unit node weights: the cluster bound is max(2, lmax // 10) itself
        labels = run_sclp(
            LocalBackend(g, rng), np.arange(g.num_nodes), max(2, lmax // 10), 3,
            chunk=chunk, pin_sweep=sweep, tie_seed=tie_seed(rng),
        )
        key = f"lp_cluster/{gname}/chunk{chunk}/{label}"
        assert digest(labels) == GOLDEN[key]

    def test_refine(self, gname, chunk, sweep, label):
        g = make_graph(gname)
        lmax = max_block_weight_bound(g, 4, 0.03)
        part = np.random.default_rng(11).integers(0, 4, size=g.num_nodes)
        rng = np.random.default_rng(13)
        refined = run_sclp(
            LocalBackend(g, rng), part, lmax, 4, refine=True, ordering="random",
            chunk=chunk, pin_sweep=sweep, tie_seed=tie_seed(rng),
        )
        key = f"lp_refine/{gname}/chunk{chunk}/{label}"
        assert digest(refined) == GOLDEN[key]


@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_band_refinement(gname):
    g = make_graph(gname)
    lmax = max_block_weight_bound(g, 4, 0.03)
    part = np.random.default_rng(17).integers(0, 4, size=g.num_nodes)
    band = band_nodes(g, part, 2)
    assert band.size  # an empty band would return ``part`` before any draw
    rng = np.random.default_rng(19)
    banded = run_sclp(
        LocalBackend(g, rng), part, lmax, 3, refine=True, ordering="random",
        band=band, tie_seed=tie_seed(rng),
    )
    assert digest(banded) == GOLDEN[f"lp_band/{gname}"]


def _parallel_lp_program(comm, graph, mode, k, chunk, sweep):
    vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
    dg = DistGraph.from_global(graph, vtxdist, comm.rank)
    lmax = max_block_weight_bound(graph, 4, 0.03)
    if mode == "cluster":
        labels = dg.to_global(np.arange(dg.n_total, dtype=np.int64))
        res = run_sclp(
            SpmdBackend(dg, comm), labels, max(2, lmax // 10), 3,
            chunk=chunk, pin_sweep=sweep, tie_seed=tie_seed(comm.rng),
        )
    else:
        part_rng = np.random.default_rng(23)
        full = part_rng.integers(0, k, size=graph.num_nodes).astype(np.int64)
        labels = np.zeros(dg.n_total, dtype=np.int64)
        labels[: dg.n_local] = full[dg.first : dg.first + dg.n_local]
        dg.halo_exchange(comm, labels)
        res = run_sclp(
            SpmdBackend(dg, comm), labels, lmax, 4, refine=True, shares=True,
            k=k, ordering="random", chunk=chunk, pin_sweep=sweep,
            tie_seed=tie_seed(comm.rng),
        )
    return dg.gather_global(comm, res[: dg.n_local])


@pytest.mark.parametrize("mode", ["cluster", "refine"])
@pytest.mark.parametrize("chunk,sweep,label", CHUNK_GRID)
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_parallel_lp(gname, p, chunk, sweep, label, mode):
    g = make_graph(gname)
    res = run_spmd(p, _parallel_lp_program, g, mode, 4, chunk, sweep, seed=5)
    key = f"par_lp_{mode}/{gname}/p{p}/chunk{chunk}/{label}"
    assert digest(res.value) == GOLDEN[key]


@pytest.mark.parametrize("cname", list(CONFIGS))
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_multilevel(gname, cname):
    g = make_graph(gname)
    config = CONFIGS[cname](k=4)
    lmax = max_block_weight_bound(g, 4, config.epsilon)
    rng = np.random.default_rng(29)
    factor = config.cluster_factor(0, detect_social(g), rng)
    backend = LocalVcycleBackend(g, config, rng, lmax)
    part = run_vcycle(backend, config, lmax, factor).partition
    assert digest(part) == GOLDEN[f"multilevel/{gname}/{cname}"]


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("cname", list(CONFIGS))
@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_parallel_partition(gname, cname, p):
    """The distributed V-cycles on the whole graph: what ``parallel_partition``
    runs on a graph without isolated nodes (ba10).  On rmat10 and rgg10 it
    runs them on the connected part, which the ``api/*`` keys pin."""
    g = make_graph(gname)
    config = CONFIGS[cname](k=4)
    lmax = max_block_weight_bound(g, 4, config.epsilon)
    res = run_spmd(p, parhip_vcycles, g, config, lmax, 31, seed=31)
    partition = res.value[0]
    assert digest(partition) == GOLDEN[f"parallel/{gname}/{cname}/p{p}"]
    assert edge_cut(g, partition) == GOLDEN[f"parallel_cut/{gname}/{cname}/p{p}"]


def test_parallel_work_accounting():
    """A dropped ``comm.work`` moves no label; the summed work units do."""
    g = make_graph("rmat10")
    res = run_spmd(4, parhip_vcycles, g, fast_config(k=4),
                   max_block_weight_bound(g, 4, 0.03), 31, seed=31)
    assert digest(res.value[0]) == GOLDEN["parallel/rmat10/fast/p4"]
    assert res.total_work == GOLDEN["parallel_work/rmat10/fast/p4"]


@pytest.mark.parametrize("gname", GRAPH_NAMES)
def test_traced_api_call_is_golden_and_feasible(gname):
    """Tracing changes no label, and run.json calls the goldens feasible.

    The call sets isolated nodes apart (rmat10 has 196, rgg10 one) and
    has its own keys; on ba10, which has none, it is the V-cycles'
    ``parallel/ba10/fast/p4`` bit for bit.
    """
    from repro.api import partition_graph
    from repro.obsv import TRACER, build_run_summary

    g = make_graph(gname)
    TRACER.enable()
    try:
        res = partition_graph(g, 4, config=fast_config(k=4), num_pes=4,
                              seed=31, backend="spmd")
    finally:
        TRACER.disable()
    quality = build_run_summary(TRACER.snapshot())["quality"]
    TRACER.reset()
    assert digest(res.partition) == GOLDEN[f"api/{gname}/fast/p4"]
    assert quality["cut"] == GOLDEN[f"api_cut/{gname}/fast/p4"]
    if gname == "ba10":
        assert digest(res.partition) == GOLDEN["parallel/ba10/fast/p4"]
        assert quality["cut"] == GOLDEN["parallel_cut/ba10/fast/p4"]
    assert quality["max_block_weight"] <= quality["lmax"]
    assert quality["lmax"] == max_block_weight_bound(g, 4, 0.03)
    assert quality["feasible"] is True
