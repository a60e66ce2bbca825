"""Tests for the baseline partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    hash_partition,
    parmetis_partition,
    random_partition,
    scotch_partition,
)
from repro.dist import parallel_partition
from repro.core import fast_config
from repro.generators import INSTANCES, load_instance, rgg
from repro.graph import check_partition
from repro.metrics import edge_cut
from repro.perf import MACHINE_A, OutOfMemoryError


class TestTrivialBaselines:
    def test_hash_is_balanced_but_cuts_a_lot(self):
        g = load_instance("eu-2005")
        res = hash_partition(g, 2)
        assert res.imbalance < 0.1  # "hashing often leads to acceptable balance"
        # ...but the edge cut is very high: close to the random expectation m/2
        assert res.cut > 0.4 * g.total_edge_weight

    def test_hash_deterministic_per_seed(self):
        g = rgg(8, seed=0)
        assert np.array_equal(hash_partition(g, 4, seed=1).partition,
                              hash_partition(g, 4, seed=1).partition)
        assert not np.array_equal(hash_partition(g, 4, seed=1).partition,
                                  hash_partition(g, 4, seed=2).partition)

    def test_random_is_perfectly_balanced_unweighted(self):
        g = rgg(8, seed=0)
        res = random_partition(g, 4)
        counts = np.bincount(res.partition, minlength=4)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("k", [2, 5])
    def test_valid_block_range(self, k):
        g = rgg(8, seed=1)
        for res in (hash_partition(g, k), random_partition(g, k)):
            check_partition(g, res.partition, k, epsilon=None)


class TestScotchLike:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_power_of_two_kway(self, k):
        g = rgg(10, seed=0)
        res = scotch_partition(g, k, epsilon=0.05)
        check_partition(g, res.partition, k, epsilon=None)
        assert res.imbalance <= 0.12

    def test_odd_k(self):
        g = rgg(9, seed=2)
        res = scotch_partition(g, 3, epsilon=0.05)
        check_partition(g, res.partition, 3, epsilon=None)
        assert res.imbalance <= 0.2

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            scotch_partition(rgg(8, seed=0), 0)

    def test_beats_random_clearly(self):
        g = load_instance("eu-2005")
        rb = scotch_partition(g, 2)
        rand = random_partition(g, 2)
        assert rb.cut < 0.5 * rand.cut


class TestParmetisLike:
    def test_good_on_meshes(self):
        g = load_instance("hugebubbles")
        res = parmetis_partition(g, 2, seed=0)
        check_partition(g, res.partition, 2, epsilon=None)
        assert res.imbalance <= 0.06
        assert res.cut < 400  # a 110x110 grid bisects around ~110

    def test_coarsening_effective_on_mesh(self):
        g = rgg(11, seed=0)
        res = parmetis_partition(g, 2, seed=0)
        assert res.coarse_sizes  # made progress
        assert res.coarse_sizes[-1] < 0.2 * g.num_nodes

    def test_coarsening_stalls_on_web_graph(self):
        """The paper's diagnosis: matching cannot shrink complex networks."""
        g = load_instance("uk-2007")
        res = parmetis_partition(g, 2, seed=0)
        coarsest = res.coarse_sizes[-1] if res.coarse_sizes else g.num_nodes
        assert coarsest > 0.3 * g.num_nodes  # far from the mesh behaviour

    def test_oom_on_largest_web_graphs_at_paper_scale(self):
        """Reproduces the * entries of Table II."""
        for name in ("sk-2005", "uk-2007"):
            g = load_instance(name)
            scale = INSTANCES[name].paper_edges / g.num_edges
            with pytest.raises(OutOfMemoryError):
                parmetis_partition(
                    g, 2, num_pes=32, machine=MACHINE_A, seed=0,
                    memory_budget=MACHINE_A.memory_per_pe(32), memory_scale=scale,
                )

    def test_arabic_fits_at_15_pes_but_not_32(self):
        """Table II footnote: arabic needs <= 15 PEs on machine A."""
        g = load_instance("arabic-2005")
        scale = INSTANCES["arabic-2005"].paper_edges / g.num_edges
        with pytest.raises(OutOfMemoryError):
            parmetis_partition(
                g, 2, num_pes=32, machine=MACHINE_A, seed=0,
                memory_budget=MACHINE_A.memory_per_pe(32), memory_scale=scale,
            )
        res = parmetis_partition(
            g, 2, num_pes=15, machine=MACHINE_A, seed=0,
            memory_budget=MACHINE_A.memory_per_pe(15), memory_scale=scale,
        )
        check_partition(g, res.partition, 2, epsilon=None)

    def test_parhip_cuts_less_on_web_graphs(self):
        """The headline comparison: on S-instances ParHIP cuts much less."""
        g = load_instance("uk-2002")
        pm = parmetis_partition(g, 2, seed=0)
        fast = parallel_partition(g, fast_config(k=2, social=True), num_pes=4, seed=0)
        assert fast.cut < 0.8 * pm.cut

    def test_parmetis_is_faster_on_meshes(self):
        """...but ParMetis wins on running time for mesh networks."""
        g = load_instance("hugebubbles")
        pm = parmetis_partition(g, 2, num_pes=8, machine=MACHINE_A, seed=0)
        fast = parallel_partition(g, fast_config(k=2, social=False), num_pes=8,
                                  machine=MACHINE_A, seed=0)
        assert pm.sim_time < fast.sim_time
