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
from ..metrics.quality import overweight_cut

__all__ = ["Individual", "Population"]


@dataclass(frozen=True)
class Individual:
    """One partition with its cached fitness components."""

    partition: np.ndarray
    cut: int
    overweight: int  # max(0, heaviest block - Lmax); 0 means balanced

    @classmethod
    def from_partition(
        cls, graph: Graph, partition: np.ndarray, k: int, lmax: int
    ) -> "Individual":
        partition = np.asarray(partition, dtype=np.int64)
        overweight, cut = overweight_cut(graph, partition, k, lmax)
        return cls(partition, cut, overweight)

    @property
    def fitness_key(self) -> tuple[int, int]:
        """Smaller is better: (balance violation, cut)."""
        return (self.overweight, self.cut)

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
