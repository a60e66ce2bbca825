"""Iterated V-cycles (paper Section IV-D).

Re-running the multilevel scheme with the previous partition fed back in
beats independent repetitions: the old partition's cut edges are never
contracted on either level of coarsening (cluster LP here, KaFFPa's
matching on the coarsest graph), so it is the starting solution there
and a cycle starts uncoarsening no worse than the best before it.  The
size-constraint factor is diversified after the first cycle (random f
in [10, 25]); the best partition over all cycles is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..graph.csr import Graph
from ..metrics.quality import overweight_cut
from ..obsv.tracer import TRACER
from .config import PartitionConfig
from .multilevel import detect_social, multilevel_partition

__all__ = ["VcycleTrace", "iterated_vcycles"]


@dataclass(frozen=True)
class VcycleTrace:
    """Per-cycle cut values (inspected by tests and the ablation bench)."""

    cuts: tuple[int, ...]
    partition: np.ndarray


def iterated_vcycles(
    graph: Graph,
    config: PartitionConfig,
    lmax: int,
    rng: np.random.Generator,
    input_partition: np.ndarray | None = None,
) -> VcycleTrace:
    """Run ``config.num_vcycles`` V-cycles; cut is monotonically non-increasing.

    ``lmax`` is the bound every cycle is held to (the caller's Lmax).
    ``input_partition`` optionally feeds an existing partition (e.g. a
    geographic prepartition, the paper's future-work scenario) into the
    *first* V-cycle: its cut edges are protected and, if it is balanced,
    the result is never worse.
    """
    social = config.social if config.social is not None else detect_social(graph)
    fitness = partial(overweight_cut, graph, k=config.k, lmax=lmax)
    best: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    cuts: list[int] = []
    if input_partition is not None:
        best = np.asarray(input_partition, dtype=np.int64)
        best_key = fitness(best)
    for cycle in range(config.num_vcycles):
        factor = config.cluster_factor(cycle, social, rng)
        with TRACER.span("vcycle", cycle=cycle, factor=float(factor)) as sp:
            candidate = multilevel_partition(
                graph,
                config,
                lmax,
                rng,
                cluster_factor=factor,
                input_partition=best,
                cycle=cycle,
            )
            key = fitness(candidate)
            if best_key is None or key <= best_key:
                best, best_key = candidate, key
            cuts.append(best_key[1])
            sp.set(cut=key[1], best_cut=best_key[1])
    assert best is not None and best_key is not None
    return VcycleTrace(tuple(cuts), best)
