"""Individuals and per-PE populations for the evolutionary algorithm.

KaFFPaE is coarse-grained (Section II-C): every PE keeps its *own*
population of partitions of the (fully replicated) coarsest graph.
Fitness is lexicographic: balanced beats unbalanced, then lower cut wins
— the same ordering the combine/seed logic of the KaFFPa engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import max_block_weight_bound
from ..metrics.quality import (
    communication_volume,
    edge_cut,
    max_communication_volume,
    max_quotient_degree,
    overweight_cut,
)

__all__ = ["Individual", "Population", "OBJECTIVES"]

#: selectable evolutionary objectives (paper conclusion: "other objective
#: functions such as maximum/total communication volume or maximum
#: quotient graph degree into the evolutionary algorithm")
OBJECTIVES = {
    "cut": edge_cut,
    "comm_volume": lambda g, p, k: communication_volume(g, p),
    "max_comm_volume": max_communication_volume,
    "max_quotient_degree": max_quotient_degree,
}


@dataclass(frozen=True)
class Individual:
    """One partition with its cached fitness components."""

    partition: np.ndarray
    cut: int
    overweight: int  # max(0, heaviest block - Lmax); 0 means balanced
    objective_value: int = -1  # value of the selected objective (default: cut)

    @classmethod
    def from_partition(
        cls,
        graph: Graph,
        partition: np.ndarray,
        k: int,
        epsilon: float,
        objective: str = "cut",
    ) -> "Individual":
        partition = np.asarray(partition, dtype=np.int64)
        lmax = max_block_weight_bound(graph, k, epsilon)
        overweight, cut = overweight_cut(graph, partition, k, lmax)
        if objective == "cut":
            value = cut
        else:
            try:
                scorer = OBJECTIVES[objective]
            except KeyError:
                raise ValueError(
                    f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
                ) from None
            value = int(scorer(graph, partition, k))
        return cls(partition, cut, overweight, value)

    @property
    def fitness_key(self) -> tuple[int, int, int]:
        """Smaller is better: (balance violation, objective, cut tiebreak)."""
        value = self.objective_value if self.objective_value >= 0 else self.cut
        return (self.overweight, value, self.cut)

    def dominates(self, other: "Individual") -> bool:
        return self.fitness_key < other.fitness_key


@dataclass
class Population:
    """Fixed-capacity elitist population (evict-worst insertion)."""

    capacity: int
    members: list[Individual] = field(default_factory=list)

    def insert(self, individual: Individual) -> bool:
        """Insert unless the population is full of strictly better members.

        Returns whether the individual was admitted.  Duplicates (same
        fitness key as an existing member) are admitted only if there is
        free capacity, which keeps some diversity pressure.
        """
        if len(self.members) < self.capacity:
            self.members.append(individual)
            return True
        worst_idx = max(range(len(self.members)), key=lambda i: self.members[i].fitness_key)
        if individual.fitness_key < self.members[worst_idx].fitness_key:
            self.members[worst_idx] = individual
            return True
        return False

    def best(self) -> Individual:
        if not self.members:
            raise ValueError("population is empty")
        return min(self.members, key=lambda ind: ind.fitness_key)

    def sample_pair(self, rng: np.random.Generator) -> tuple[Individual, Individual]:
        """Two distinct random members (the same one twice if size is 1)."""
        if not self.members:
            raise ValueError("population is empty")
        if len(self.members) == 1:
            return self.members[0], self.members[0]
        i, j = rng.choice(len(self.members), size=2, replace=False)
        return self.members[int(i)], self.members[int(j)]

    def __len__(self) -> int:
        return len(self.members)
