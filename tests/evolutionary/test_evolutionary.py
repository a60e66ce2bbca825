"""Tests for the KaFFPaE evolutionary algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import run_spmd
from repro.evolutionary import (
    Individual,
    KaffpaeOptions,
    Population,
    combine,
    kaffpae_partition,
    mutate_perturb,
    mutate_vcycle,
    overlay_labels,
    rumor_exchange,
)
from repro.generators import load_instance, planted_partition
from repro.graph import check_partition, max_block_weight_bound
from repro.metrics import edge_cut


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def small_social():
    g, _ = planted_partition(4, 40, p_in=0.3, p_out=0.02, seed=0)
    return g


def bound(graph, epsilon, k=2):
    return max_block_weight_bound(graph, k, epsilon)


def make_individual(graph, k, seed, epsilon=0.03):
    part = rng(seed).integers(0, k, size=graph.num_nodes)
    return Individual.from_partition(graph, part, k, bound(graph, epsilon, k))


class TestIndividual:
    def test_fitness_components(self, two_triangles):
        ind = Individual.from_partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2, 3)
        assert ind.cut == 1
        assert ind.overweight == 0

    def test_overweight_detected(self, two_triangles):
        ind = Individual.from_partition(two_triangles, np.array([0] * 5 + [1]), 2, 3)
        assert ind.overweight == 2  # 5 vs Lmax 3

    def test_domination_prefers_balance_over_cut(self, two_triangles):
        balanced = Individual.from_partition(
            two_triangles, np.array([0, 1, 0, 1, 0, 1]), 2, 3
        )
        unbalanced_low_cut = Individual.from_partition(
            two_triangles, np.array([0] * 6), 2, 3
        )
        assert balanced.dominates(unbalanced_low_cut)


class TestPopulation:
    def test_capacity_and_eviction(self, small_social):
        pop = Population(capacity=2)
        worst = make_individual(small_social, 2, seed=1)
        pop.insert(worst)
        pop.insert(worst)
        better = Individual.from_partition(
            small_social, np.zeros(small_social.num_nodes, dtype=np.int64), 2,
            small_social.num_nodes,
        )  # Lmax the whole graph -> balanced, cut 0
        assert pop.insert(better)
        assert len(pop) == 2
        assert pop.best().cut == 0

    def test_insert_rejects_when_full_of_better(self, small_social):
        pop = Population(capacity=1)
        good = Individual.from_partition(
            small_social, np.zeros(small_social.num_nodes, dtype=np.int64), 2,
            small_social.num_nodes,
        )
        pop.insert(good)
        bad = make_individual(small_social, 2, seed=2)
        assert not pop.insert(bad)

    def test_sample_pair_distinct(self, small_social):
        pop = Population(capacity=3)
        for s in range(3):
            pop.insert(make_individual(small_social, 2, seed=s))
        a, b = pop.sample_pair(rng(0))
        assert a is not b

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            Population(capacity=1).best()


class TestOverlay:
    def test_overlay_distinguishes_cut_edges(self):
        p1 = np.array([0, 0, 1, 1])
        p2 = np.array([0, 1, 1, 1])
        labels = overlay_labels(p1, p2, 2)
        # nodes agree on (p1, p2) pairs: (0,0),(0,1),(1,1),(1,1)
        assert labels[2] == labels[3]
        assert len({labels[0], labels[1], labels[2]}) == 3

    def test_identical_parents_yield_parent_blocks(self):
        p = np.array([1, 0, 1, 0])
        labels = overlay_labels(p, p, 2)
        assert labels[0] == labels[2]
        assert labels[1] == labels[3]
        assert labels[0] != labels[1]


class TestCombine:
    def test_offspring_not_worse_than_better_parent(self, small_social):
        k, eps = 2, 0.05
        a = make_individual(small_social, k, seed=3, epsilon=eps)
        b = make_individual(small_social, k, seed=4, epsilon=eps)
        lmax = bound(small_social, eps, k)
        child = combine(small_social, k, lmax, rng(5), a, b)
        better = a if not b.dominates(a) else b
        assert child.fitness_key <= better.fitness_key

    def test_combine_improves_random_parents(self, small_social):
        k, eps = 2, 0.05
        a = make_individual(small_social, k, seed=6, epsilon=eps)
        b = make_individual(small_social, k, seed=7, epsilon=eps)
        lmax = bound(small_social, eps, k)
        child = combine(small_social, k, lmax, rng(8), a, b)
        assert child.cut < min(a.cut, b.cut)


class TestMutation:
    def test_vcycle_mutation_never_worsens(self, small_social):
        k, eps = 2, 0.05
        ind = make_individual(small_social, k, seed=9, epsilon=eps)
        lmax = bound(small_social, eps, k)
        mutant = mutate_vcycle(small_social, k, lmax, rng(10), ind)
        assert mutant.fitness_key <= ind.fitness_key

    def test_perturb_mutation_returns_valid(self, small_social):
        k, eps = 2, 0.05
        ind = make_individual(small_social, k, seed=11, epsilon=eps)
        lmax = bound(small_social, eps, k)
        mutant = mutate_perturb(small_social, k, lmax, rng(12), ind)
        check_partition(small_social, mutant.partition, k, epsilon=None)


class TestRumorExchange:
    def test_good_individuals_spread(self, small_social):
        k, eps = 2, 0.5
        n = small_social.num_nodes
        champion = (np.arange(n) >= n // 2).astype(np.int64)  # balanced, low cut
        lmax = bound(small_social, eps, k)
        champion_ind = Individual.from_partition(small_social, champion, k, lmax)
        assert champion_ind.overweight == 0

        def program(comm):
            pop = Population(capacity=2)
            if comm.rank == 0:
                pop.insert(champion_ind)
            else:
                pop.insert(make_individual(small_social, k, seed=comm.rank, epsilon=eps))
            for _ in range(4):
                rumor_exchange(comm, small_social, pop, k, lmax)
            return pop.best().cut

        result = run_spmd(4, program, seed=3)
        # the champion (far better than any random individual) reaches most PEs
        assert sum(1 for c in result.per_rank if c == champion_ind.cut) >= 3


class TestKaffpae:
    def test_single_rank_returns_valid_partition(self, small_social):
        def program(comm):
            return kaffpae_partition(comm, small_social, 2, bound(small_social, 0.03),
                                     KaffpaeOptions(population_size=2, rounds=2))

        result = run_spmd(1, program, seed=0)
        check_partition(small_social, result.value, 2, epsilon=0.03)

    def test_all_ranks_agree_on_result(self, small_social):
        def program(comm):
            return kaffpae_partition(comm, small_social, 2, bound(small_social, 0.03),
                                     KaffpaeOptions(population_size=2, rounds=4))

        result = run_spmd(3, program, seed=1)
        for other in result.per_rank[1:]:
            assert np.array_equal(result.per_rank[0], other)

    def test_seed_individual_never_worsened(self, small_social):
        seed_part = np.zeros(small_social.num_nodes, dtype=np.int64)
        seed_part[: small_social.num_nodes // 2] = 1  # balanced, truth-ish
        seed_cut = edge_cut(small_social, seed_part)

        def program(comm):
            return kaffpae_partition(comm, small_social, 2, bound(small_social, 0.05),
                                     KaffpaeOptions(population_size=2, rounds=2),
                                     seed_individual=seed_part)

        result = run_spmd(2, program, seed=2)
        assert edge_cut(small_social, result.value) <= seed_cut

    def test_more_rounds_do_not_worsen(self, small_social):
        def program_rounds(rounds):
            def program(comm):
                return kaffpae_partition(comm, small_social, 2, bound(small_social, 0.03),
                                         KaffpaeOptions(population_size=2,
                                                        rounds=rounds))
            return program

        quick = run_spmd(2, program_rounds(0), seed=5)
        longer = run_spmd(2, program_rounds(6), seed=5)
        assert edge_cut(small_social, longer.value) <= edge_cut(small_social, quick.value)
