"""Perf-regression harness for the partitioning hot paths.

Not a paper artifact — a throughput baseline in the spirit of the
optimisation guides (measure first, compare always).  Running this
module as a script measures ops/sec for

* sequential label propagation,
* the distributed halo exchange,
* parallel contraction,

each on an RMAT and a mesh instance, plus the headline numbers: parallel
LP at 4 simulated PEs on a 2^15-node RMAT graph under each pinned sweep
(``par_lp_chunked_*`` = full, ``par_lp_frontier_*`` = frontier; no
production caller pins one — the engine runs the full sweep when
clustering and the frontier sweep when refining).  The rows sit on both
sides of that rule: cluster LP from singletons in the 3-iteration churn
regime (what every coarsening call is) and run into convergence, with
p=8 scaling rows, and ``par_lp_{full,frontier}_refine_*``: 6 refinement
rounds from a projected partition (what every uncoarsening level is).
The ``proc_lp_p{1,4}`` rows run the cluster workload on the
*process* backend (``run_spmd_processes``: real OS workers over
shared-memory CSR) and record real wall-clock throughput — their ratio
is the machine's actual parallel speedup, so interpret it against the
``cpu_cores`` meta field.  Results go to ``BENCH_lp.json`` at the repo
root.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py          # write baseline
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py --check  # CI gate

``--check`` reads the committed ``BENCH_lp.json`` first, re-measures,
rewrites the file, and exits non-zero if any metric fell below half its
committed ops/sec (a >2x regression).  Wall-clock noise on shared CI
runners is far below 2x; a real algorithmic regression is not.

On top of the 2x catch-all, the pinned-sweep parallel-LP metrics carry
a tighter *engine-parity* gate: those ops/s must stay within
``ENGINE_PARITY_TOLERANCE`` (10%) of the committed baseline.
Best-of-``REPEATS`` timing keeps runner noise under that bar; a parity
failure means the phase loop gained per-phase overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import partition_graph
from repro.core.config import fast_config
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.engine.kernels import DEFAULT_CHUNK_SIZE
from repro.dist.dist_partitioner import parallel_partition
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.dist.dist_contraction import parallel_contract
from repro.dist.runtime import run_spmd, run_spmd_processes
from repro.generators import grid_2d, rmat
from repro.graph.quotient import contract
from repro.graph.validation import max_block_weight_bound
from repro.perf.machine import MACHINE_A

RESULT_PATH = REPO_ROOT / "BENCH_lp.json"
PES = 4
#: PE count for the scaling rows: same LP
#: workloads at 8 simulated PEs, so the sweep comparison is visible at
#: a second machine size
PES_8 = 8
REPEATS = 5  # best-of; 3 was not enough to tame shared-host noise
LP_ITERATIONS = 3
#: iteration count for the converged-regime LP metrics: cluster LP on
#: the headline instance settles after ~4 sweeps, so most of these
#: iterations exercise the near-converged steady state where the
#: frontier sweep skips almost every rescan
LP_CONVERGED_ITERATIONS = 24
#: the paper's refinement round count (§V-A), and the block count of the
#: refinement rows
LP_REFINE_ITERATIONS = 6
REFINE_K = 8
#: metrics covered by the tighter engine-parity gate: the pinned sweeps
#: of the vectorised LP hot path
ENGINE_PARITY_KEYS = (
    "par_lp_chunked_rmat15_p4",
    "par_lp_frontier_rmat15_p4",
    "par_lp_chunked_converged_rmat15_p4",
    "par_lp_frontier_converged_rmat15_p4",
)
ENGINE_PARITY_TOLERANCE = 0.10


def _best(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall-clock of ``fn()`` (returns seconds)."""
    return min(fn() for _ in range(repeats))


def seq_lp_rate(graph, chunk: int) -> float:
    """Arc-visits/sec of one sequential cluster-mode LP run."""

    def run() -> float:
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        run_sclp(
            LocalBackend(graph, rng), np.arange(graph.num_nodes, dtype=np.int64),
            max(2, int(graph.vwgt.sum()) // 50), LP_ITERATIONS, chunk=chunk,
            tie_seed=int(rng.integers(0, 2**63 - 1)),
        )
        return time.perf_counter() - t0

    return graph.num_arcs * LP_ITERATIONS / _best(run)


def par_lp_rate(graph, chunk: int, sweep: str, pes: int = PES) -> float:
    """Arc-visits/sec of parallel cluster-mode LP at ``pes`` simulated PEs.

    Only the LP call is timed (per-rank, max across ranks via
    ``allreduce_max``) — DistGraph setup is not part of the hot path.
    The rate numerator is always the *full-sweep* arc count, so the
    frontier sweep's skipped rescans show up as a higher rate.
    """

    def program(comm):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
        t0 = time.perf_counter()
        run_sclp(
            SpmdBackend(dgraph, comm), init, 300, LP_ITERATIONS, chunk=chunk,
            pin_sweep=sweep, tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        )
        return comm.allreduce_max(time.perf_counter() - t0)

    dt = _best(lambda: run_spmd(pes, program, seed=0).value)
    return graph.num_arcs * LP_ITERATIONS / dt


def _proc_lp_program(comm, graph):
    """Spawn-safe LP program for the process-backend rows.

    Module-level so spawn workers can re-import it; the graph arrives
    through the shared-memory CSR segments, not the pickle stream.
    """
    dgraph = DistGraph.from_global(
        graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
    )
    init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
    t0 = time.perf_counter()
    run_sclp(
        SpmdBackend(dgraph, comm), init, 300, LP_ITERATIONS,
        pin_sweep="frontier", tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
    )
    return comm.allreduce_max(time.perf_counter() - t0)


def proc_lp_rate(graph, pes: int) -> float:
    """Real wall-clock arc-visits/sec of cluster LP on the process backend.

    Times only the LP region inside the workers (max across ranks), so
    spawn + import + shm setup — a fixed ~seconds overhead per run — is
    excluded and the rate measures steady-state throughput.  Unlike
    every other ``par_*`` metric the clock here is *real* parallelism:
    the ranks are OS processes, so on a multi-core host the p=4 rate
    exceeds the p=1 rate.  On a single-core host (see ``cpu_cores`` in
    the meta block) the ranks time-slice one CPU and the p=4/p=1 ratio
    sits below 1, bounded by the queue-collective overhead.
    """

    def run() -> float:
        return run_spmd_processes(pes, _proc_lp_program, graph=graph, seed=0).value

    return graph.num_arcs * LP_ITERATIONS / _best(run)


def par_lp_converged_rate(graph, sweep: str, pes: int = PES) -> float:
    """Equivalent-sweep rate of LP run into its converged regime.

    Unconstrained cluster LP (the size bound is the total node weight,
    so capping never churns) settles after a few sweeps; the remaining
    iterations rescan a near-static labelling.  The numerator counts
    full-sweep arc visits per iteration — the TEPS-style convention —
    so a sweep that *skips* converged rescans shows a higher rate,
    which is precisely the frontier sweep's value proposition.
    """

    def program(comm):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
        t0 = time.perf_counter()
        run_sclp(
            SpmdBackend(dgraph, comm), init, int(graph.vwgt.sum()),
            LP_CONVERGED_ITERATIONS, pin_sweep=sweep, tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        )
        return comm.allreduce_max(time.perf_counter() - t0)

    dt = _best(lambda: run_spmd(pes, program, seed=0).value)
    return graph.num_arcs * LP_CONVERGED_ITERATIONS / dt


def projected_partition(graph, k: int) -> np.ndarray:
    """What refinement starts from at the finest level: a partition of
    the once-contracted graph, projected back through the clustering."""
    bound = max_block_weight_bound(graph, k, 0.03) // 14
    rng = np.random.default_rng(0)
    clustering = run_sclp(
        LocalBackend(graph, rng), np.arange(graph.num_nodes, dtype=np.int64),
        max(int(graph.vwgt.max(initial=1)), bound), LP_ITERATIONS,
        tie_seed=int(rng.integers(0, 2**63 - 1)),
    )
    level = contract(graph, clustering)
    return partition_graph(level.coarse, k, seed=0).partition[level.fine_to_coarse]


def par_lp_refine_rate(graph, start: np.ndarray, sweep: str,
                       pes: int = PES) -> float:
    """Equivalent-sweep rate of refine-mode LP from the partition ``start``."""
    bound = max_block_weight_bound(graph, REFINE_K, 0.03)

    def program(comm):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        labels = np.zeros(dgraph.n_total, dtype=np.int64)
        labels[: dgraph.n_local] = start[
            dgraph.first : dgraph.first + dgraph.n_local
        ]
        dgraph.halo_exchange(comm, labels)
        t0 = time.perf_counter()
        run_sclp(
            SpmdBackend(dgraph, comm), labels, bound, LP_REFINE_ITERATIONS,
            refine=True, shares=True, k=REFINE_K, ordering="random",
            pin_sweep=sweep, tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        )
        return comm.allreduce_max(time.perf_counter() - t0)

    dt = _best(lambda: run_spmd(pes, program, seed=0).value)
    return graph.num_arcs * LP_REFINE_ITERATIONS / dt


def frontier_stats(graph) -> dict:
    """One untimed traced LP run: frontier fractions + exchange bytes.

    Informational (not part of the ``--check`` gate): per-iteration
    ``frontier_frac`` from the ``lp.iteration`` spans, plus the
    ``alltoall[lp.labels]`` payload bytes under the delta and the dense
    wire formats.
    """
    from repro.obsv.tracer import TRACER

    def program(comm, delta):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
        run_sclp(
            SpmdBackend(dgraph, comm), init, 300, LP_ITERATIONS,
            pin_sweep="frontier", tie_seed=int(comm.rng.integers(0, 2**63 - 1)), delta=delta,
        )
        return None

    def lp_bytes(result) -> int:
        return sum(
            s.per_op.get("alltoall[lp.labels]", (0, 0))[1]
            for s in result.stats
        )

    TRACER.enable(reset=True)
    try:
        delta_run = run_spmd(PES, program, True, seed=0)
        by_rank: dict[int, list[float]] = {}
        for rec in TRACER.snapshot():
            attrs = rec.get("attrs", {})
            if rec.get("name") == "lp.iteration" and "frontier_frac" in attrs:
                by_rank.setdefault(rec.get("rank", 0), []).append(
                    attrs["frontier_frac"]
                )
    finally:
        TRACER.disable()
    dense_run = run_spmd(PES, program, False, seed=0)

    rounds = max((len(v) for v in by_rank.values()), default=0)
    per_iter = [
        round(float(np.mean([v[i] for v in by_rank.values() if len(v) > i])), 4)
        for i in range(rounds)
    ]
    return {
        "frontier_frac_per_iteration": per_iter,
        "lp_exchange_bytes_delta": lp_bytes(delta_run),
        "lp_exchange_bytes_dense": lp_bytes(dense_run),
    }


def halo_rate(graph, rounds: int = 20) -> float:
    """Ghost values exchanged/sec at ``PES`` simulated PEs."""

    def program(comm):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        values = np.arange(dgraph.n_total, dtype=np.int64)
        t0 = time.perf_counter()
        for _ in range(rounds):
            dgraph.halo_exchange(comm, values)
        dt = comm.allreduce_max(time.perf_counter() - t0)
        return dt, comm.allreduce(dgraph.n_ghost)

    dt, total_ghosts = _best_pair(program)
    return total_ghosts * rounds / dt


def contract_rate(graph) -> float:
    """Fine arcs contracted/sec by ``parallel_contract`` at ``PES`` PEs."""
    clustering = np.random.default_rng(3).integers(
        0, max(2, graph.num_nodes // 50), graph.num_nodes
    )

    def program(comm):
        dgraph = DistGraph.from_global(
            graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
        )
        labels = np.zeros(dgraph.n_total, dtype=np.int64)
        labels[: dgraph.n_local] = clustering[
            dgraph.first : dgraph.first + dgraph.n_local
        ]
        dgraph.halo_exchange(comm, labels)
        t0 = time.perf_counter()
        parallel_contract(dgraph, comm, labels)
        return comm.allreduce_max(time.perf_counter() - t0), 0

    dt, _ = _best_pair(program)
    return graph.num_arcs / dt


def _best_pair(program) -> tuple[float, int]:
    best = None
    for _ in range(REPEATS):
        dt, extra = run_spmd(PES, program, seed=0).value
        if best is None or dt < best[0]:
            best = (dt, extra)
    return best


def phase_breakdown() -> dict:
    """Simulated seconds per pipeline phase of one fast-config partition.

    Informational only — the ``--check`` gate compares ``metrics`` keys
    exclusively, so this section can evolve without invalidating the
    committed ops/sec baseline.
    """
    graph = rmat(12, seed=1)
    res = parallel_partition(
        graph, fast_config(k=4), num_pes=PES, machine=MACHINE_A, seed=0
    )
    total = sum(res.phase_times.values()) or 1.0
    return {
        "instance": "rmat12",
        "pes": PES,
        "cut": int(res.cut),
        "sim_time_s": round(res.sim_time, 6),
        "phases_sim_s": {k: round(v, 6) for k, v in res.phase_times.items()},
        "phases_share": {k: round(v / total, 3) for k, v in res.phase_times.items()},
    }


#: leg program for the out-of-core comparison: each leg runs in its own
#: process because VmHWM is a process-lifetime high-water mark (this
#: bench process has already held rmat15 graphs by the time it runs)
_OOCORE_LEG = """\
import json, sys, time
from repro.api import partition_oocore
from repro.graph import open_sharded
from repro.perf.rss import memory_sample

mode, shard_dir, iterations = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = open_sharded(shard_dir)
if mode == "memory":
    graph = graph.materialized()
t0 = time.perf_counter()
result = partition_oocore(graph, 8, seed=3, iterations=iterations)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "peak_rss_bytes": memory_sample()["peak_rss_bytes"],
    "cut": int(result.quality.cut),
    "arcs_read": int(graph.store.stats().arcs_read),
    "labels_sum": int(result.partition.sum()),
}))
"""


def oocore_breakdown() -> dict:
    """Out-of-core vs in-memory flat SCLP on a sharded scale-18 RMAT.

    Informational (not part of the ``--check`` gate): arc throughput and
    peak RSS of the same semi-external program on the two stores.  The
    interesting numbers are ``peak_rss_ratio`` (how much memory the
    ``MmapShardStore`` actually saves) and ``slowdown`` (what streaming
    the arcs from disk costs); the identical cuts are the equivalence
    contract, test-enforced at scale 21.
    """
    import subprocess
    import tempfile

    from repro.generators import rmat_shards

    iterations = 4
    with tempfile.TemporaryDirectory() as tmp:
        shard_dir = os.path.join(tmp, "rmat18.shards")
        rmat_shards(shard_dir, scale=18, edge_factor=8, seed=7)
        legs = {}
        for mode in ("mmap", "memory"):
            proc = subprocess.run(
                [sys.executable, "-c", _OOCORE_LEG, mode, shard_dir,
                 str(iterations)],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            )
            legs[mode] = json.loads(proc.stdout)
    arcs = legs["mmap"]["arcs_read"]  # identical programs, same traffic
    return {
        "oocore_lp_rmat18": {
            "instance": "rmat18",
            "k": 8,
            "iterations": iterations,
            "mmap_arc_reads_per_s": round(arcs / legs["mmap"]["wall_s"], 1),
            "memory_arc_reads_per_s": round(arcs / legs["memory"]["wall_s"], 1),
            "mmap_peak_rss_bytes": legs["mmap"]["peak_rss_bytes"],
            "memory_peak_rss_bytes": legs["memory"]["peak_rss_bytes"],
            "peak_rss_ratio": round(
                legs["mmap"]["peak_rss_bytes"]
                / legs["memory"]["peak_rss_bytes"], 3,
            ),
            "slowdown": round(
                legs["mmap"]["wall_s"] / legs["memory"]["wall_s"], 2
            ),
            "cut": legs["mmap"]["cut"],
            "labels_identical": (
                legs["mmap"]["cut"] == legs["memory"]["cut"]
                and legs["mmap"]["labels_sum"] == legs["memory"]["labels_sum"]
            ),
        },
    }


def measure() -> dict:
    instances = {
        "rmat": rmat(13, seed=1),
        "mesh": grid_2d(91, 91),
    }
    metrics: dict[str, float] = {}
    for name, graph in instances.items():
        metrics[f"seq_lp_chunked_{name}"] = seq_lp_rate(graph, DEFAULT_CHUNK_SIZE)
        metrics[f"halo_exchange_{name}"] = halo_rate(graph)
        metrics[f"contraction_{name}"] = contract_rate(graph)

    headline = rmat(15, seed=1)
    # Untimed warm-up.  The first three or so thread-backend LP runs of a
    # process time ~2x faster than every later one (glibc serves large
    # arrays by mmap until its dynamic threshold adapts; measured on the
    # 2-core host this file's baseline was written on), and best-of-N
    # would hand that to whichever row comes first.  The rows below are
    # gated against each other, so all are measured in the steady state.
    par_lp_rate(headline, DEFAULT_CHUNK_SIZE, "full")
    chunked = par_lp_rate(headline, DEFAULT_CHUNK_SIZE, "full")
    frontier = par_lp_rate(headline, DEFAULT_CHUNK_SIZE, "frontier")
    metrics["par_lp_chunked_rmat15_p4"] = chunked
    metrics["par_lp_frontier_rmat15_p4"] = frontier

    conv_full = par_lp_converged_rate(headline, "full")
    conv_frontier = par_lp_converged_rate(headline, "frontier")
    metrics["par_lp_chunked_converged_rmat15_p4"] = conv_full
    metrics["par_lp_frontier_converged_rmat15_p4"] = conv_frontier

    start = projected_partition(headline, REFINE_K)
    refine_full = par_lp_refine_rate(headline, start, "full")
    refine_frontier = par_lp_refine_rate(headline, start, "frontier")
    metrics["par_lp_full_refine_rmat15_p4"] = refine_full
    metrics["par_lp_frontier_refine_rmat15_p4"] = refine_frontier

    # Scaling rows: the same 3-iteration workload at 8 simulated PEs.
    metrics["par_lp_chunked_rmat15_p8"] = par_lp_rate(
        headline, DEFAULT_CHUNK_SIZE, "full", pes=PES_8
    )
    metrics["par_lp_frontier_rmat15_p8"] = par_lp_rate(
        headline, DEFAULT_CHUNK_SIZE, "frontier", pes=PES_8
    )

    proc_p1 = proc_lp_rate(headline, 1)
    proc_p4 = proc_lp_rate(headline, PES)
    metrics["proc_lp_p1"] = proc_p1
    metrics["proc_lp_p4"] = proc_p4

    return {
        "meta": {
            "unit": "ops/sec (arc-visits, ghost values, or fine arcs)",
            "pes": PES,
            "pes_scaling": PES_8,
            "repeats": REPEATS,
            "lp_iterations": LP_ITERATIONS,
            "lp_converged_iterations": LP_CONVERGED_ITERATIONS,
            "lp_refine_iterations": LP_REFINE_ITERATIONS,
            "default_chunk_size": DEFAULT_CHUNK_SIZE,
            # The proc_lp_* rows measure real OS-process parallelism, so
            # their p4/p1 ratio is only meaningful relative to the cores
            # the benchmark host actually grants this process.
            "cpu_cores": len(os.sched_getaffinity(0)),
        },
        "metrics": {k: round(v, 1) for k, v in metrics.items()},
        "speedups": {
            "par_cluster_lp_frontier_vs_full_rmat15_p4": round(
                frontier / chunked, 2
            ),
            "par_cluster_lp_frontier_converged_vs_full_rmat15_p4": round(
                conv_frontier / conv_full, 2
            ),
            "par_refine_lp_frontier_vs_full_rmat15_p4": round(
                refine_frontier / refine_full, 2
            ),
            "proc_lp_wall_speedup_p4": round(proc_p4 / proc_p1, 2),
        },
        "frontier_metrics": frontier_stats(headline),
        "phase_metrics": phase_breakdown(),
        "oocore_metrics": oocore_breakdown(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed BENCH_lp.json; exit 1 on a "
             ">2x ops/sec regression anywhere or a >10% drop on the "
             "engine-parity LP metrics",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.check:
        if not RESULT_PATH.exists():
            print(f"--check requires a committed baseline at {RESULT_PATH}")
            return 1
        baseline = json.loads(RESULT_PATH.read_text())

    report = measure()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(k) for k in report["metrics"])
    for key, value in report["metrics"].items():
        line = f"{key:<{width}}  {value / 1e6:8.2f} M ops/s"
        if baseline is not None and key in baseline.get("metrics", {}):
            ref = baseline["metrics"][key]
            line += f"  (baseline {ref / 1e6:.2f}, x{value / ref:.2f})"
        print(line)
    for regime, key in (("cluster", "par_cluster_lp_frontier_vs_full_rmat15_p4"),
                        ("refine", "par_refine_lp_frontier_vs_full_rmat15_p4")):
        print(f"parallel {regime} LP, frontier vs full sweep: "
              f"{report['speedups'][key]:.2f}x")
    print(f"wrote {RESULT_PATH}")

    if baseline is not None:
        ref_metrics = baseline.get("metrics", {})
        # Wall-clock "speedups" of the process backend on a single-core
        # host measure queue/scheduling overhead, not parallelism — the
        # recorded proc_lp_wall_speedup_p4 = 0.2x caveat.  When either
        # side of the comparison ran on one core, gating on those rows
        # would fail (or pass) for reasons unrelated to the code.
        cores_now = report["meta"].get("cpu_cores")
        cores_then = baseline.get("meta", {}).get("cpu_cores")
        skip_proc_rows = cores_now == 1 or cores_then == 1
        if skip_proc_rows:
            skipped = sorted(
                key for key in ref_metrics
                if key.startswith("proc_lp_") and key in report["metrics"]
            )
            if skipped:
                print(
                    "skipping process-backend wall-speedup gate for "
                    + ", ".join(skipped)
                    + f": recorded cpu_cores == 1 (baseline {cores_then}, "
                    f"current {cores_now}); single-core wall ratios measure "
                    "queue overhead, not parallel speedup"
                )
        regressed = [
            key
            for key, ref in ref_metrics.items()
            if key in report["metrics"] and report["metrics"][key] < ref / 2
            and not (skip_proc_rows and key.startswith("proc_lp_"))
        ]
        if regressed:
            print("REGRESSION (>2x below committed baseline): "
                  + ", ".join(regressed))
            return 1
        parity_floor = 1.0 - ENGINE_PARITY_TOLERANCE
        off_parity = [
            key
            for key in ENGINE_PARITY_KEYS
            if key in ref_metrics
            and key in report["metrics"]
            and report["metrics"][key] < ref_metrics[key] * parity_floor
        ]
        if off_parity:
            print(
                "ENGINE PARITY FAILURE (>"
                f"{ENGINE_PARITY_TOLERANCE:.0%} below committed baseline): "
                + ", ".join(off_parity)
            )
            return 1
        print(
            "check passed: no metric more than 2x below baseline; "
            "engine-parity LP metrics within "
            f"{ENGINE_PARITY_TOLERANCE:.0%}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
