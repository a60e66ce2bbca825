"""Mutation operators for KaFFPaE.

Mutation must inject diversity without destroying fitness.  Following the
paper's design (mutation = V-cycle-style re-runs of the multilevel engine
on one individual):

* :func:`mutate_vcycle` — run the engine with the individual as seed
  partition (its cut edges protected, itself the coarsest start) and a
  fresh random coarsening; never worsens, often improves;
* :func:`mutate_perturb` — flip a random small fraction of boundary-block
  assignments and repair with refinement; may worsen, used to escape
  plateaus (the caller decides admission through the population).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..kaffpa.driver import KaffpaOptions, kaffpa_partition
from ..kaffpa.kway_fm import greedy_kway_refine
from ..metrics.quality import boundary_nodes
from .population import Individual

__all__ = ["mutate_vcycle", "mutate_perturb"]

#: share of the boundary nodes :func:`mutate_perturb` reassigns
PERTURB_FRACTION = 0.05


def mutate_vcycle(
    graph: Graph,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    individual: Individual,
    options: KaffpaOptions | None = None,
) -> Individual:
    """Non-worsening mutation: one protected V-cycle over the individual."""
    offspring = kaffpa_partition(
        graph,
        k,
        lmax,
        rng,
        options=options,
        seed_partition=individual.partition,
    )
    child = Individual.from_partition(graph, offspring, k, lmax)
    return child if not individual.dominates(child) else individual


def mutate_perturb(
    graph: Graph,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    individual: Individual,
) -> Individual:
    """Diversifying mutation: reassign some boundary nodes, then repair."""
    partition = individual.partition.copy()
    boundary = boundary_nodes(graph, partition)
    if boundary.size:
        count = max(1, int(PERTURB_FRACTION * boundary.size))
        chosen = rng.choice(boundary, size=min(count, boundary.size), replace=False)
        partition[chosen] = rng.integers(0, k, size=chosen.size)
    repaired = greedy_kway_refine(graph, partition, k, lmax, rng, max_passes=3)
    return Individual.from_partition(graph, repaired, k, lmax)
