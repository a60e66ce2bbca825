"""Capture seeded golden outputs for the engine equivalence gate.

Runs every entry point the engine must keep byte-identical — ``run_sclp``
clustering/refinement on both backends, the sequential multilevel cycle,
and the full parallel partitioner — over a fixed grid of generator
instances, presets, and PE counts, and writes SHA-256 hashes of the
resulting label arrays to ``tests/engine/golden_partitions.json``.

Run it from a tree whose behaviour is the reference; the test suite
then replays the grid and compares hashes.  A recapture must leave every
``*/chunk64/*``, ``parallel/*`` and ``parallel_cut/*`` value unchanged
(``git diff`` the JSON): those date from the pre-engine tree and are the
proof that the hashed-tie-break path never moved (their p = 1 keys were
recaptured once, with the SPMD stop rule; see
``tests/engine/test_golden_equivalence.py``), so they replay
``parhip_vcycles``: the distributed V-cycles on the whole graph, without
the isolated-node split of ``parhip_program``.  The ``api/*`` and
``api_cut/*`` keys pin the public call, split included.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import partition_graph  # noqa: E402
from repro.core import LocalVcycleBackend, detect_social, eco_config, fast_config  # noqa: E402
from repro.dist.dist_partitioner import parhip_vcycles  # noqa: E402
from repro.dist.dgraph import DistGraph, balanced_vtxdist  # noqa: E402
from repro.dist.runtime import run_spmd  # noqa: E402
from repro.engine import LocalBackend, SpmdBackend, run_sclp  # noqa: E402
from repro.engine.vcycle import run_vcycle  # noqa: E402
from repro.generators import barabasi_albert, rgg, rmat  # noqa: E402
from repro.graph.ops import band_nodes  # noqa: E402
from repro.graph.validation import max_block_weight_bound  # noqa: E402
from repro.metrics import edge_cut  # noqa: E402


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def tie_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


GRAPHS = {
    "rmat10": lambda: rmat(10, seed=1),
    "ba10": lambda: barabasi_albert(1024, 4, seed=2),
    "rgg10": lambda: rgg(10, seed=3),
}

CONFIGS = {"fast": fast_config, "eco": eco_config}

#: (chunk_size, pinned sweep, golden key label)
CHUNK_GRID = [(1, "full", "auto"), (64, "full", "full"), (64, "frontier", "frontier")]


def lp_goldens(out: dict) -> None:
    for gname, make in GRAPHS.items():
        g = make()
        lmax = max_block_weight_bound(g, 4, 0.03)
        for chunk, sweep, label in CHUNK_GRID:
            rng = np.random.default_rng(7)
            # unit node weights: the cluster bound is max(2, lmax // 10) itself
            labels = run_sclp(
                LocalBackend(g, rng), np.arange(g.num_nodes), max(2, lmax // 10), 3,
                chunk=chunk, pin_sweep=sweep, tie_seed=tie_seed(rng),
            )
            out[f"lp_cluster/{gname}/chunk{chunk}/{label}"] = digest(labels)
            rng = np.random.default_rng(11)
            part = rng.integers(0, 4, size=g.num_nodes)
            rng2 = np.random.default_rng(13)
            refined = run_sclp(
                LocalBackend(g, rng2), part, lmax, 4, refine=True, ordering="random",
                chunk=chunk, pin_sweep=sweep, tie_seed=tie_seed(rng2),
            )
            out[f"lp_refine/{gname}/chunk{chunk}/{label}"] = digest(refined)
        rng = np.random.default_rng(17)
        part = rng.integers(0, 4, size=g.num_nodes)
        rng2 = np.random.default_rng(19)
        band = band_nodes(g, part, 2)
        banded = part if band.size == 0 else run_sclp(
            LocalBackend(g, rng2), part, lmax, 3, refine=True, ordering="random",
            band=band, tie_seed=tie_seed(rng2),
        )
        out[f"lp_band/{gname}"] = digest(banded)


def parallel_lp_goldens(out: dict) -> None:
    def program(comm, graph, mode, k, chunk, sweep):
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

    for gname, make in GRAPHS.items():
        g = make()
        for p in (1, 4):
            for chunk, sweep, label in CHUNK_GRID:
                for mode in ("cluster", "refine"):
                    res = run_spmd(p, program, g, mode, 4, chunk, sweep, seed=5)
                    out[f"par_lp_{mode}/{gname}/p{p}/chunk{chunk}/{label}"] = (
                        digest(res.value)
                    )


def multilevel_goldens(out: dict) -> None:
    for gname, make in GRAPHS.items():
        g = make()
        for cname, cfg in CONFIGS.items():
            config = cfg(k=4)
            rng = np.random.default_rng(29)
            lmax = max_block_weight_bound(g, 4, config.epsilon)
            factor = config.cluster_factor(0, detect_social(g), rng)
            part = run_vcycle(LocalVcycleBackend(g, config, rng, lmax), config, lmax,
                              factor).partition
            out[f"multilevel/{gname}/{cname}"] = digest(part)


def parallel_partition_goldens(out: dict) -> None:
    for gname, make in GRAPHS.items():
        g = make()
        for cname, cfg in CONFIGS.items():
            config = cfg(k=4)
            lmax = max_block_weight_bound(g, 4, config.epsilon)
            for p in (1, 4):
                res = run_spmd(p, parhip_vcycles, g, config, lmax, 31, seed=31)
                out[f"parallel/{gname}/{cname}/p{p}"] = digest(res.value[0])
                out[f"parallel_cut/{gname}/{cname}/p{p}"] = edge_cut(g, res.value[0])
    # Work accounting moves no label, so one instance pins its total: the
    # summed CommStats.work_units of parallel/rmat10/fast/p4.
    g = GRAPHS["rmat10"]()
    res = run_spmd(4, parhip_vcycles, g, fast_config(k=4),
                   max_block_weight_bound(g, 4, 0.03), 31, seed=31)
    out["parallel_work/rmat10/fast/p4"] = res.total_work


def api_goldens(out: dict) -> None:
    """``partition_graph`` of ``parallel/<g>/fast/p4``: it equals that key
    on a graph without isolated nodes (ba10); on rmat10 and rgg10 the
    V-cycles run on the connected part and the isolated nodes come last."""
    for gname, make in GRAPHS.items():
        res = partition_graph(make(), 4, config=fast_config(k=4), num_pes=4, seed=31)
        out[f"api/{gname}/fast/p4"] = digest(res.partition)
        out[f"api_cut/{gname}/fast/p4"] = int(res.cut)


def main() -> None:
    out: dict = {}
    lp_goldens(out)
    parallel_lp_goldens(out)
    multilevel_goldens(out)
    parallel_partition_goldens(out)
    api_goldens(out)
    dest = Path(__file__).resolve().parents[1] / "tests" / "engine" / "golden_partitions.json"
    dest.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} goldens to {dest}")


if __name__ == "__main__":
    main()
