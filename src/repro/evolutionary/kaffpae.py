"""The distributed evolutionary algorithm KaFFPaE (Sections II-C, IV-E).

Each PE holds a replica of the (coarsest) graph and its own population.
After building the initial population with independent multilevel runs,
the PEs iterate combine/mutate rounds on their local populations and
gossip their best individuals with rumor spreading.  The final answer is
the globally best individual (allreduce on the fitness key).

Budgeting follows the paper's ``t_p = t_1 / p`` rule ("time spent during
initial partitioning is dependent on the number of processors used") in
*units of engine runs*: at ``p`` PEs each PE builds
``ceil(population_size / p)`` initial individuals and runs
``ceil(rounds_at_one_pe / p)`` optimisation rounds.  Total effort (and
global population diversity — the final answer is the all-PE best) stays
roughly constant while per-PE wall-clock shrinks with ``p``, which is
what makes the initial-partitioning phase scale in Figures 5/6.
``rounds = 0`` reproduces the fast configuration (initial population
only).

The V-cycle hook: ``seed_individual`` (the projected partition from the
previous multilevel iteration) joins every PE's initial population, so
the EA's result can never be worse than the incoming partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist.comm import SimComm
from ..graph.csr import Graph
from ..kaffpa.driver import KaffpaOptions, kaffpa_partition
from ..obsv.tracer import TRACER
from .combine import combine
from .exchange import rumor_exchange
from .mutation import mutate_perturb, mutate_vcycle
from .population import Individual, Population

__all__ = ["KaffpaeOptions", "kaffpae_partition"]

#: estimated work units (edge traversals) of one engine run per arc
_ENGINE_WORK_PER_ARC = 12.0
#: chance that a round mutates a member after its combine
MUTATION_PROBABILITY = 0.2
#: rumor-spread the local best every this many rounds
EXCHANGE_PERIOD = 2


@dataclass(frozen=True)
class KaffpaeOptions:
    """Evolutionary-algorithm knobs."""

    population_size: int = 4
    rounds: int = 0  # optimisation rounds at p = 1 (scaled by 1/p)
    # matching-based engine: the coarsest graph has already had its
    # community structure contracted away, so cluster coarsening has
    # nothing to exploit there — the paper uses the full (matching +
    # FM) KaFFPa inside the combine operations
    engine: KaffpaOptions = KaffpaOptions(coarsest_nodes=40)


def kaffpae_partition(
    comm: SimComm,
    graph: Graph,
    k: int,
    lmax: int,
    options: KaffpaeOptions | None = None,
    seed_individual: np.ndarray | None = None,
) -> np.ndarray:
    """Run KaFFPaE on a fully replicated graph; returns the global best.

    Collective over ``comm`` — every rank passes the same graph and
    options and receives the same partition.
    """
    options = options or KaffpaeOptions()
    rng = comm.rng
    population = Population(capacity=max(1, options.population_size))

    # ------------------------------------------------------------------
    # Initial population (independent multilevel runs per PE)
    # ------------------------------------------------------------------
    if seed_individual is not None:
        population.insert(Individual.from_partition(graph, seed_individual, k, lmax))
    # t_p = t_1 / p: each PE builds its 1/p share of the population; the
    # global pool (what the final all-PE best draws from) keeps its size.
    local_target = max(1, -(-options.population_size // comm.size))
    with TRACER.span("ea.init", comm=comm, target=local_target) as init_sp:
        while len(population) < local_target:
            part = kaffpa_partition(graph, k, lmax, rng, options=options.engine)
            population.insert(Individual.from_partition(graph, part, k, lmax))
            comm.work(_ENGINE_WORK_PER_ARC * graph.num_arcs)
        init_sp.set(best_cut=population.best().cut)

    # ------------------------------------------------------------------
    # Optimisation rounds: t_p = t_1 / p
    # ------------------------------------------------------------------
    local_rounds = -(-options.rounds // comm.size) if options.rounds else 0
    # All ranks must agree on the round count (collective exchanges inside).
    local_rounds = int(comm.allreduce_max(local_rounds))
    for round_idx in range(local_rounds):
        round_span = TRACER.span("ea.round", comm=comm, round=round_idx)
        round_span.__enter__()
        parent_a, parent_b = population.sample_pair(rng)
        child = combine(graph, k, lmax, rng, parent_a, parent_b,
                        options=options.engine)
        child_admitted = population.insert(child)
        round_span.set(child_cut=child.cut, child_admitted=bool(child_admitted))
        comm.work(_ENGINE_WORK_PER_ARC * graph.num_arcs)
        if rng.random() < MUTATION_PROBABILITY:
            victim, _ = population.sample_pair(rng)
            if rng.random() < 0.5:
                mutant = mutate_vcycle(graph, k, lmax, rng, victim,
                                       options=options.engine)
                mutation_kind = "vcycle"
            else:
                mutant = mutate_perturb(graph, k, lmax, rng, victim)
                mutation_kind = "perturb"
            mutant_admitted = population.insert(mutant)
            round_span.set(mutation=mutation_kind, mutant_cut=mutant.cut,
                           mutant_admitted=bool(mutant_admitted))
            comm.work(_ENGINE_WORK_PER_ARC * graph.num_arcs)
        if (round_idx + 1) % EXCHANGE_PERIOD == 0:
            bytes_before = comm.stats.bytes_sent
            admitted = rumor_exchange(comm, graph, population, k, lmax)
            round_span.set(exchange_admitted=int(admitted),
                           exchange_bytes=comm.stats.bytes_sent - bytes_before)
        if TRACER.enabled:
            members = population.members
            round_span.set(
                best_cut=population.best().cut,
                avg_cut=float(sum(m.cut for m in members) / max(1, len(members))),
            )
        round_span.__exit__(None, None, None)

    # ------------------------------------------------------------------
    # Global best (deterministic tie-break by rank)
    # ------------------------------------------------------------------
    best = population.best()
    keyed = comm.allgather((best.fitness_key, comm.rank))
    winner_rank = min(keyed)[1]
    return comm.bcast(best.partition if comm.rank == winner_rank else None,
                      root=winner_rank)
