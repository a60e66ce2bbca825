"""The communication-volume / quotient-degree metrics of the paper's
conclusion (measurements only), and the one fitness the evolutionary
algorithm selects on: balance first, then cut."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evolutionary import Individual
from repro.generators import planted_partition
from repro.graph import max_block_weight_bound
from repro.metrics import (
    communication_volume,
    max_communication_volume,
    max_quotient_degree,
)


@pytest.fixture(scope="module")
def social():
    g, _ = planted_partition(6, 48, p_in=0.3, p_out=0.02, seed=0)
    return g


class TestObjectiveMetrics:
    def test_max_quotient_degree_bridge(self, two_triangles):
        part = np.array([0, 0, 0, 1, 1, 1])
        assert max_quotient_degree(two_triangles, part, 2) == 1

    def test_max_quotient_degree_star_of_blocks(self):
        from repro.graph import from_edges

        g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        part = np.array([0, 1, 2, 3])
        assert max_quotient_degree(g, part, 4) == 3  # block 0 touches all

    def test_max_comm_volume_bounds_total(self, social):
        rng = np.random.default_rng(0)
        part = rng.integers(0, 4, size=social.num_nodes)
        worst = max_communication_volume(social, part, 4)
        total = communication_volume(social, part)
        assert worst <= total <= 4 * worst

    def test_zero_when_uncut(self, two_triangles):
        part = np.zeros(6, dtype=np.int64)
        assert max_quotient_degree(two_triangles, part, 2) == 0
        assert max_communication_volume(two_triangles, part, 2) == 0


class TestIndividualObjectives:
    def test_default_objective_is_cut(self, social):
        part = np.arange(social.num_nodes) % 2
        ind = Individual.from_partition(social, part, 2, max_block_weight_bound(social, 2, 0.5))
        assert ind.fitness_key == (ind.overweight, ind.cut)

    def test_balance_still_dominates(self, social):
        lmax = max_block_weight_bound(social, 2, 0.03)
        balanced = Individual.from_partition(
            social, np.arange(social.num_nodes) % 2, 2, lmax)
        lopsided = Individual.from_partition(
            social, np.zeros(social.num_nodes, dtype=np.int64), 2, lmax)
        assert lopsided.cut < balanced.cut
        assert balanced.dominates(lopsided)
