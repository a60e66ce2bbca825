"""Kernel throughput of the calls the partitioning pipeline makes.

A diagnostic, not a paper artifact: ``benchmarks/e2e`` judges whether
``partition_graph`` got faster; this script times the kernels under it
one at a time, on an RMAT and a mesh instance, each called with the
keywords the pipeline passes (the sweep follows from the mode):

* ``seq_lp_chunked_*``: sequential cluster LP from singletons (coarsening);
* ``halo_exchange_*``: the ghost-value exchange at ``PES`` thread ranks;
* ``contraction_*``: ``parallel_contract`` at ``PES`` thread ranks;
* ``par_lp_chunked_rmat15_p4``: cluster LP from singletons at ``PES``
  ranks, which runs the full sweep;
* ``par_lp_frontier_refine_rmat15_p4``: refinement LP from a projected
  partition at ``PES`` ranks, which runs the frontier sweep.

An LP row credits each phase its call ran as one full sweep of the arcs.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py          # write baseline
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py --check  # CI gate

The plain run measures ``BASELINE_RUNS`` times, prints each row's
spread and writes its minimum to ``BENCH_lp.json``.  ``--check``
measures once and writes nothing: it fails when a row of the committed
baseline reads below ``FLOOR`` of its value, or is missing.  One bar,
because five back-to-back runs of one row spread by up to 1.7x on a
2-vCPU host (EXPERIMENTS.md): a tighter bar would fail on noise.
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
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.dist.dist_contraction import parallel_contract
from repro.dist.runtime import run_spmd
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.generators import grid_2d, rmat
from repro.graph.quotient import contract
from repro.graph.validation import max_block_weight_bound

RESULT_PATH = REPO_ROOT / "BENCH_lp.json"
PES = 4
REPEATS = 5  # best-of; 3 was not enough to tame shared-host noise
#: measure() runs whose per-row minimum is the committed baseline
BASELINE_RUNS = 5
#: a row fails the check below this share of its baseline
FLOOR = 0.5
#: the pipeline's coarsening and refinement round counts (§V-A), and
#: the block count of the refinement row
LP_ITERATIONS = 3
LP_REFINE_ITERATIONS = 6
REFINE_K = 8


def _best_rate(run) -> float:
    """Best-of-``REPEATS`` ops/s of ``run()``, which returns ``(seconds, ops)``."""
    return max(ops / seconds for seconds, ops in (run() for _ in range(REPEATS)))


def _spmd_rate(program) -> float:
    """Best-of-``REPEATS`` ops/s of an SPMD ``program`` at ``PES`` thread
    ranks; every rank returns ``(seconds, ops)``, seconds the max over ranks."""
    return _best_rate(lambda: run_spmd(PES, program).value)


def _slice(graph, comm) -> DistGraph:
    return DistGraph.from_global(
        graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
    )


def _local_labels(dgraph: DistGraph, labels: np.ndarray) -> np.ndarray:
    """A rank's view (owned nodes, then ghosts) of the global ``labels``."""
    return labels[dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))]


class _CountingBackend(LocalBackend):
    """``LocalBackend`` counting the phases ``run_sclp`` runs: the stop
    rule is asked once per phase."""

    phases = 0

    def reduce_phase(self, moved, inflow):
        self.phases += 1
        return super().reduce_phase(moved, inflow)


def seq_lp_rate(graph) -> float:
    """Arc-visits/s of one sequential cluster LP call."""

    def run() -> tuple[float, int]:
        rng = np.random.default_rng(0)
        backend = _CountingBackend(graph, rng)
        t0 = time.perf_counter()
        run_sclp(
            backend, np.arange(graph.num_nodes, dtype=np.int64),
            max(2, int(graph.vwgt.sum()) // 50), LP_ITERATIONS,
            tie_seed=int(rng.integers(0, 2**63 - 1)),
        )
        return time.perf_counter() - t0, graph.num_arcs * backend.phases

    return _best_rate(run)


def par_lp_rate(graph, start: np.ndarray, bound: int, iterations: int,
                **mode) -> float:
    """Arc-visits/s of one LP call at ``PES`` ranks from the global labels
    ``start``; only the call is timed.  Each rank runs one
    ``alltoall[lp.labels]`` per phase."""

    def program(comm):
        dgraph = _slice(graph, comm)
        labels = _local_labels(dgraph, start)
        t0 = time.perf_counter()
        run_sclp(
            SpmdBackend(dgraph, comm), labels, bound, iterations,
            tie_seed=int(comm.rng.integers(0, 2**63 - 1)), **mode,
        )
        seconds = comm.allreduce_max(time.perf_counter() - t0)
        return seconds, graph.num_arcs * comm.stats.per_op["alltoall[lp.labels]"][0]

    return _spmd_rate(program)


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


def halo_rate(graph, rounds: int = 20) -> float:
    """Ghost values exchanged/s at ``PES`` ranks."""

    def program(comm):
        dgraph = _slice(graph, comm)
        values = np.arange(dgraph.n_total, dtype=np.int64)
        t0 = time.perf_counter()
        for _ in range(rounds):
            dgraph.halo_exchange(comm, values)
        seconds = comm.allreduce_max(time.perf_counter() - t0)
        return seconds, comm.allreduce(dgraph.n_ghost) * rounds

    return _spmd_rate(program)


def contract_rate(graph) -> float:
    """Fine arcs contracted/s by ``parallel_contract`` at ``PES`` ranks."""
    clustering = np.random.default_rng(3).integers(
        0, max(2, graph.num_nodes // 50), graph.num_nodes
    )

    def program(comm):
        dgraph = _slice(graph, comm)
        labels = _local_labels(dgraph, clustering)
        t0 = time.perf_counter()
        parallel_contract(dgraph, comm, labels)
        return comm.allreduce_max(time.perf_counter() - t0), graph.num_arcs

    return _spmd_rate(program)


def measure() -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name, graph in (("rmat", rmat(13, seed=1)), ("mesh", grid_2d(91, 91))):
        metrics[f"seq_lp_chunked_{name}"] = seq_lp_rate(graph)
        metrics[f"halo_exchange_{name}"] = halo_rate(graph)
        metrics[f"contraction_{name}"] = contract_rate(graph)

    headline = rmat(15, seed=1)
    cluster = (np.arange(headline.num_nodes, dtype=np.int64), 300, LP_ITERATIONS)
    # Untimed warm-up.  The first three or so thread-rank LP runs of a
    # process time ~2x faster than every later one (glibc serves large
    # arrays by mmap until its dynamic threshold adapts; measured on a
    # 2-core host), and best-of-N would hand that to the first row.
    par_lp_rate(headline, *cluster)
    metrics["par_lp_chunked_rmat15_p4"] = par_lp_rate(headline, *cluster)
    metrics["par_lp_frontier_refine_rmat15_p4"] = par_lp_rate(
        headline, projected_partition(headline, REFINE_K),
        max_block_weight_bound(headline, REFINE_K, 0.03), LP_REFINE_ITERATIONS,
        refine=True, shares=True, k=REFINE_K, ordering="random",
    )
    return {key: round(value, 1) for key, value in metrics.items()}


def failing_rows(metrics: dict[str, float], baseline: dict[str, float]) -> list[str]:
    """The rows of ``baseline`` that ``metrics`` reads below ``FLOOR`` of
    their baseline value, or lacks."""
    return [key for key, ref in baseline.items() if metrics.get(key, 0.0) < FLOOR * ref]


def check() -> int:
    if not RESULT_PATH.exists():
        print(f"--check requires a committed baseline at {RESULT_PATH}")
        return 1
    baseline = json.loads(RESULT_PATH.read_text())["metrics"]
    metrics = measure()
    width = max(map(len, baseline))
    for key, ref in baseline.items():
        read = (f"{metrics[key] / 1e6:8.2f} M ops/s  x{metrics[key] / ref:.2f}"
                if key in metrics else f"{'missing':>16}")
        print(f"{key:<{width}}  {read}  (baseline {ref / 1e6:.2f}, "
              f"floor {FLOOR * ref / 1e6:.2f})")
    failing = failing_rows(metrics, baseline)
    if failing:
        print(f"REGRESSION (below {FLOOR:g}x of the committed baseline, or "
              "missing): " + ", ".join(failing))
        return 1
    print(f"check passed: every row at or above {FLOOR:g}x of its baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"measure once against the committed {RESULT_PATH.name}, write "
             f"nothing; exit 1 if a row reads below {FLOOR:g}x of its baseline "
             "or is missing",
    )
    if parser.parse_args(argv).check:
        return check()

    runs = [measure() for _ in range(BASELINE_RUNS)]
    metrics = {key: min(run[key] for run in runs) for key in runs[0]}
    width = max(map(len, metrics))
    for key, low in metrics.items():
        high = max(run[key] for run in runs)
        print(f"{key:<{width}}  min {low / 1e6:8.2f}  max {high / 1e6:8.2f} "
              f"M ops/s  max/min {high / low:.2f}")
    meta = {
        "unit": "ops/sec (arc-visits, ghost values, or fine arcs)",
        "pes": PES,
        "repeats": REPEATS,
        "baseline_runs": BASELINE_RUNS,
        "lp_iterations": LP_ITERATIONS,
        "lp_refine_iterations": LP_REFINE_ITERATIONS,
        "cpu_cores": len(os.sched_getaffinity(0)),
    }
    RESULT_PATH.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
