"""Workloads of the end-to-end benchmark: instances, ops and the verifier.

A workload is an instance generated from the bench seed plus the
``partition_graph`` call made on it.  The set-up child turns a workload
into files on disk and an *op spec* (format, path, call arguments); the
measure and trace children only ever see that spec, never the workload
name, so the program cannot special-case a benchmark.

``repro`` is imported inside the functions: the measure child times the
import itself, and importing this module must stay free of side effects.
"""

from __future__ import annotations

import glob
from dataclasses import dataclass, field

EPSILON = 0.03

#: Partition seeds the ops of a run cycle through (bench seed + 0..Q-1).
#: The cut of one seed is one draw of a randomised algorithm, and across
#: bench seeds that draw spreads by 3-6 % (quartile distance over median)
#: on these instances; so does the work of an op, by up to 30 %.  Means
#: over Q fixed seeds are as repeatable and spread by half of that.
#: Every seed's cut must still repeat exactly.
PARTITION_SEEDS = 4

#: io function of ``repro.graph`` that loads each on-disk format
LOADERS = {"npz": "load_npz", "metis": "read_metis", "sharded": "open_sharded"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # 'rmat' | 'delaunay' | 'rmat_shards'
    scale: int
    quick_scale: int  # instance of the --quick self-check pass
    format: str  # key of LOADERS
    call: dict = field(default_factory=dict)  # partition_graph arguments
    needs_cores: int = 1  # wall_s is unresolved on a host with fewer
    tracer_probe: bool = False  # also time one op under the program's TRACER


WORKLOADS = (
    Workload(
        name="seq_rmat15_fast",
        why="README default call on a social graph: SCLP through the sequential "
            "scan path is ~85 % of wall; single-threaded baseline of proc2_rmat15_fast",
        generator="rmat", scale=15, quick_scale=11, format="npz",
        call={"k": 8, "preset": "fast", "num_pes": 1},
        tracer_probe=True,
    ),
    Workload(
        name="proc2_rmat15_fast",
        why="only workload with dist on the path: spawn, shared-memory CSR, ProcComm "
            "collectives, dist contraction, chunked adaptive LP, KaFFPaE; p = 2 = cores",
        generator="rmat", scale=15, quick_scale=11, format="npz",
        call={"k": 8, "preset": "fast", "num_pes": 2, "backend": "process"},
        needs_cores=2,
    ),
    Workload(
        name="seq_del14_eco_k32",
        why="mesh class: twice the levels, low uniform degree where chunked kernels gain "
            "least, five V-cycles with a constraint partition, text load; counter-workload",
        generator="delaunay", scale=14, quick_scale=10, format="metis",
        call={"k": 32, "preset": "eco", "num_pes": 1},
    ),
    Workload(
        name="oocore_rmat17_mmap",
        why="same engine over graph.store gathers: frontier kernels in node order, working "
            "set 4x the shard cache; a speed-up bought with residency shows in peak_rss_mib",
        generator="rmat_shards", scale=17, quick_scale=12, format="sharded",
        call={"k": 8},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: shards per sharded instance; with the store's default of 4 resident
#: shards the working set is 4x the cache at every scale
SHARDS = 16


def generate(workload: Workload, seed: int, dest: str, quick: bool = False) -> str:
    """Write the workload's instance for ``seed`` under ``dest``; return its path."""
    from repro import generators
    from repro.generators.stream import rmat_shards
    from repro.graph import save_npz, write_metis

    scale = workload.quick_scale if quick else workload.scale
    if workload.generator == "rmat_shards":
        path = f"{dest}/shards"
        rmat_shards(path, scale, seed=seed, nodes_per_shard=2**scale // SHARDS)
        return path
    path = f"{dest}/graph.{workload.format}"
    write = {"npz": save_npz, "metis": write_metis}[workload.format]
    write(getattr(generators, workload.generator)(scale, seed=seed), path)
    return path


def op_spec(workload: Workload, path: str, seed: int) -> dict:
    """What a measuring child needs to run ops: files and call arguments."""
    return {
        "format": workload.format,
        "path": path,
        "seed": seed,
        "call": {**workload.call, "epsilon": EPSILON},
    }


def op_seed(spec: dict, index: int) -> int:
    """Partition seed of the ``index``-th op of a run."""
    return spec["seed"] + index % PARTITION_SEEDS


def run_op(spec: dict, seed: int):
    """One op: instance on disk -> validated partition in memory.

    Returns the graph, the partition and the cut the program reported.
    """
    import repro.graph
    from repro.api import partition_graph

    graph = getattr(repro.graph, LOADERS[spec["format"]])(spec["path"])
    result = partition_graph(graph, seed=seed, **spec["call"])
    return graph, result.partition, result.cut


class OpFailure(Exception):
    """An op returned something the benchmark does not accept."""


def shm_segments() -> set[str]:
    """Shared-memory segments of the program's store now in /dev/shm."""
    from repro.graph.store import SHM_PREFIX

    return set(glob.glob(f"/dev/shm/{SHM_PREFIX}*"))


def verify(graph, partition, k: int, reported_cut: int) -> tuple[int, float]:
    """Check a returned partition from outside the program.

    Raises :class:`OpFailure` unless every node has a block in ``[0, k)``,
    no block is heavier than ``Lmax`` at the requested epsilon (the API
    itself checks with ``epsilon=None``) and the recomputed cut equals
    the reported one.  Returns the recomputed cut and the imbalance.
    """
    from repro.graph import GraphError, check_partition
    from repro.metrics import edge_cut, evaluate_partition_streaming, imbalance

    try:
        check_partition(graph, partition, k, epsilon=EPSILON)
    except GraphError as exc:
        raise OpFailure(str(exc)) from exc
    if graph.resident:
        cut = edge_cut(graph, partition)
    else:
        cut = evaluate_partition_streaming(graph, partition, k).cut
    if cut != reported_cut:
        raise OpFailure(f"recomputed cut {cut} != reported cut {reported_cut}")
    return int(cut), float(imbalance(graph, partition, k))
