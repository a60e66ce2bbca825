"""Experiment runner: one algorithm x instance x seeds -> aggregated row.

The Table II/III protocol (Section V-A): ten repetitions per
configuration with different seeds, report the arithmetic mean of cut and
time plus the best cut; geometric means across instances.  Our default
repetition count is lower (pure-Python wall-clock), configurable via the
``REPRO_BENCH_SEEDS`` environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..baselines.parmetis_like import parmetis_partition
from ..baselines.recursive_bisection import scotch_partition
from ..baselines.trivial import hash_partition, random_partition
from ..core.config import PartitionConfig, eco_config, fast_config, minimal_config
from ..dist.dist_partitioner import parallel_partition
from ..generators.suite import INSTANCES
from ..graph.csr import Graph
from ..perf.machine import MACHINE_A, Machine
from ..perf.memory import OutOfMemoryError

__all__ = [
    "AggregatedRow",
    "bench_seeds",
    "geometric_mean",
    "memory_scale_for",
    "replica_scale_for",
    "run_algorithm",
]


def bench_seeds(default: int = 3) -> int:
    """Repetitions per configuration (env-overridable).

    Empty or non-numeric ``REPRO_BENCH_SEEDS`` falls back to the default;
    a parseable but non-positive count is rejected outright (silently
    running zero repetitions would fabricate empty table rows).
    """
    if default < 1:
        raise ValueError(f"seed count must be >= 1, got {default}")
    raw = os.environ.get("REPRO_BENCH_SEEDS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    if value < 1:
        raise ValueError(
            f"REPRO_BENCH_SEEDS must be >= 1, got {value!r}"
        )
    return value


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the paper's cross-instance average).

    Any zero value makes the product — and hence the mean — zero; it is
    reported as such rather than silently dropped (dropping a zero cut
    would inflate the cross-instance average).
    """
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def memory_scale_for(name: str, graph: Graph, working_set_factor: float = 1.0) -> float:
    """Stand-in-bytes -> paper-bytes factor for a registry instance."""
    inst = INSTANCES[name]
    return working_set_factor * inst.paper_edges / max(1, graph.num_edges)


def replica_scale_for(
    name: str, graph: Graph, coarsest_nodes_per_block: int = 40
) -> float:
    """Byte scale for ParHIP's replicated coarsest graph.

    The paper stops coarsening at ``10 000 * k`` nodes of a >10^7-node
    input (a sub-percent fraction); our scaled runs stop at
    ``coarsest_nodes_per_block * k`` of a ~10^4-node stand-in (a few
    percent).  The replica charge must reflect paper *proportions*, so
    the instance scale is corrected by the ratio of coarsest fractions.
    ``k`` cancels out of the ratio.
    """
    inst = INSTANCES[name]
    scale = memory_scale_for(name, graph)
    paper_fraction_num = 10_000.0 / inst.paper_nodes
    ours_fraction_num = coarsest_nodes_per_block / max(1, graph.num_nodes)
    return scale * paper_fraction_num / ours_fraction_num


@dataclass
class AggregatedRow:
    """One table cell group: avg cut / best cut / avg time (or OOM)."""

    algorithm: str
    instance: str
    k: int
    avg_cut: float | None
    best_cut: int | None
    avg_time: float | None
    avg_imbalance: float | None
    oom: bool = False
    #: per-phase simulated seconds averaged over seeds (ParHIP configs only)
    avg_phase_times: dict[str, float] | None = None

    def cells(self) -> tuple[str, str, str]:
        if self.oom:
            return ("*", "*", "*")
        return (
            f"{self.avg_cut:,.0f}",
            f"{self.best_cut:,}",
            f"{self.avg_time * 1e3:.2f}",
        )


def _config_for(algorithm: str, k: int, social: bool) -> PartitionConfig:
    factory = {"fast": fast_config, "eco": eco_config, "minimal": minimal_config}[algorithm]
    return factory(k=k, social=social)


def run_algorithm(
    algorithm: str,
    graph: Graph,
    instance_name: str,
    k: int,
    num_pes: int,
    machine: Machine = MACHINE_A,
    seeds: int | None = None,
    enforce_memory: bool = False,
    sim_pes: int | None = None,
    working_set_factor: float = 1.0,
) -> AggregatedRow:
    """Run one algorithm on one instance over several seeds and aggregate.

    ``algorithm``: ``'parmetis' | 'scotch' | 'hash' | 'random' | 'fast' |
    'eco' | 'minimal'``.  ``num_pes`` is the *modelled* PE count (used in
    the cost/memory model); ``sim_pes`` optionally caps the number of
    actually simulated threads for the ParHIP configurations (quality is
    insensitive to it; default min(num_pes, 8) keeps wall-clock sane).
    """
    seeds = bench_seeds() if seeds is None else seeds
    social = INSTANCES[instance_name].kind == "S" if instance_name in INSTANCES else None
    budget = machine.memory_per_pe(num_pes) if enforce_memory else None
    scale = (
        memory_scale_for(instance_name, graph, working_set_factor)
        if enforce_memory and instance_name in INSTANCES
        else 1.0
    )

    cuts: list[int] = []
    times: list[float] = []
    imbalances: list[float] = []
    phase_times: list[dict] = []
    for seed in range(seeds):
        try:
            if algorithm == "parmetis":
                res = parmetis_partition(
                    graph, k, num_pes=num_pes, machine=machine, seed=seed,
                    memory_budget=budget, memory_scale=scale,
                )
            elif algorithm == "scotch":
                res = scotch_partition(graph, k, num_pes=num_pes, machine=machine, seed=seed)
            elif algorithm == "hash":
                res = hash_partition(graph, k, num_pes=num_pes, machine=machine, seed=seed)
            elif algorithm == "random":
                res = random_partition(graph, k, num_pes=num_pes, machine=machine, seed=seed)
            elif algorithm in ("fast", "eco", "minimal"):
                config = _config_for(algorithm, k, bool(social))
                threads = sim_pes if sim_pes is not None else min(num_pes, 8)
                replica_scale = (
                    replica_scale_for(instance_name, graph,
                                      config.coarsest_nodes_per_block)
                    if enforce_memory and instance_name in INSTANCES
                    else None
                )
                res = parallel_partition(
                    graph, config, num_pes=threads, machine=machine, seed=seed,
                    memory_budget=budget, memory_scale=scale,
                    replica_memory_scale=replica_scale,
                )
            else:
                raise ValueError(f"unknown algorithm {algorithm!r}")
        except OutOfMemoryError:
            return AggregatedRow(algorithm, instance_name, k, None, None, None, None, oom=True)
        cuts.append(res.cut)
        times.append(res.sim_time)
        imbalances.append(res.imbalance)
        if res.phase_times:
            phase_times.append(res.phase_times)

    avg_phases = None
    if phase_times:
        phases = sorted({p for pt in phase_times for p in pt})
        avg_phases = {
            p: float(np.mean([pt.get(p, 0.0) for pt in phase_times]))
            for p in phases
        }
    return AggregatedRow(
        algorithm,
        instance_name,
        k,
        float(np.mean(cuts)),
        int(min(cuts)),
        float(np.mean(times)),
        float(np.mean(imbalances)),
        avg_phase_times=avg_phases,
    )
