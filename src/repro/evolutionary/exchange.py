"""Rumor-spreading individual exchange (Section II-C).

"From time to time, the best local partition is sent to a random
selection of other processors."  Each exchange round, every PE pushes its
current best individual to :data:`FANOUT` random other PEs through the
buffered point-to-point layer; received individuals are offered to the
local population (elitist insertion decides admission).
"""

from __future__ import annotations


from ..dist.comm import SimComm
from ..graph.csr import Graph
from .population import Individual, Population

__all__ = ["rumor_exchange"]

#: random other PEs each PE pushes its best individual to per round
FANOUT = 2


def rumor_exchange(
    comm: SimComm,
    graph: Graph,
    population: Population,
    k: int,
    lmax: int,
) -> int:
    """One exchange round; returns how many received individuals were admitted.

    Collective: every rank must participate (the underlying exchange is an
    all-to-all round even for ranks that send nothing).
    """
    if comm.size > 1 and len(population) > 0:
        best = population.best()
        others = [r for r in range(comm.size) if r != comm.rank]
        targets = comm.rng.choice(others, size=min(FANOUT, len(others)), replace=False)
        for dest in targets.tolist():
            comm.send_buffered(int(dest), best.partition.copy())
    admitted = 0
    for _src, payload in comm.exchange():
        immigrant = Individual.from_partition(graph, payload, k, lmax)
        if population.insert(immigrant):
            admitted += 1
    return admitted
