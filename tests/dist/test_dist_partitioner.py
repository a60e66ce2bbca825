"""End-to-end tests for the parallel partitioner and the public API."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import partition_graph
from repro.core import eco_config, fast_config, minimal_config, sequential_partition
from repro.dist import parallel_partition
from repro.generators import load_instance, planted_partition, rgg, rmat, web_copy_graph
from repro.graph import check_partition
from repro.metrics import edge_cut
from repro.perf import MACHINE_B


class TestParallelPartition:
    @pytest.mark.parametrize("num_pes", [1, 2, 4, 8])
    def test_balanced_valid_partitions(self, num_pes):
        g = load_instance("amazon")
        res = parallel_partition(g, fast_config(k=2, social=True),
                                 num_pes=num_pes, seed=1)
        check_partition(g, res.partition, 2, epsilon=0.03)

    def test_quality_close_to_sequential(self):
        g = load_instance("amazon")
        seq = sequential_partition(g, fast_config(k=2, social=True), seed=1)
        par = parallel_partition(g, fast_config(k=2, social=True), num_pes=8, seed=1)
        assert par.cut <= 1.25 * seq.cut

    def test_k32_on_web_graph(self):
        g = load_instance("eu-2005")
        res = parallel_partition(g, fast_config(k=32, social=True), num_pes=4, seed=0)
        check_partition(g, res.partition, 32, epsilon=0.03)

    def test_mesh_partitioning(self):
        g = rgg(11, seed=0)
        res = parallel_partition(g, fast_config(k=16, social=False), num_pes=4, seed=0)
        check_partition(g, res.partition, 16, epsilon=0.03)

    def test_deterministic_given_seed(self):
        g = load_instance("youtube")
        a = parallel_partition(g, fast_config(k=2, social=True), num_pes=4, seed=3)
        b = parallel_partition(g, fast_config(k=2, social=True), num_pes=4, seed=3)
        assert np.array_equal(a.partition, b.partition)

    def test_simulated_time_and_phases(self):
        g = load_instance("youtube")
        res = parallel_partition(g, fast_config(k=2, social=True), num_pes=4,
                                 machine=MACHINE_B, seed=0)
        assert res.sim_time > 0
        assert set(res.phase_times) == {"coarsening", "initial", "refinement"}
        assert res.coarse_sizes  # at least one coarsening level happened
        # sizes reset between V-cycles; within the record all must be
        # smaller than the input graph
        assert all(s < g.num_nodes for s in res.coarse_sizes)

    def test_eco_beats_or_matches_fast(self):
        g = load_instance("amazon")
        fast = parallel_partition(g, fast_config(k=2, social=True), num_pes=4, seed=2)
        eco = parallel_partition(
            g, eco_config(k=2, social=True, evolution_rounds=4), num_pes=4, seed=2
        )
        assert eco.cut <= 1.05 * fast.cut  # eco invests more; never much worse

    def test_memory_budget_not_triggered_for_cluster_coarsening(self):
        # ParHIP's coarsening shrinks complex networks, so a paper-scale
        # budget is comfortable
        from repro.generators import INSTANCES

        g = load_instance("uk-2002")
        inst = INSTANCES["uk-2002"]
        scale = inst.paper_edges / g.num_edges
        res = parallel_partition(
            g, fast_config(k=2, social=True), num_pes=4, seed=0,
            memory_budget=MACHINE_B.memory_per_pe(4), memory_scale=scale,
        )
        check_partition(g, res.partition, 2, epsilon=0.03)


class TestVcyclesParallel:
    def test_second_vcycle_does_not_worsen(self):
        g = load_instance("youtube")
        one = parallel_partition(g, minimal_config(k=2, social=True), num_pes=4, seed=5)
        two = parallel_partition(g, fast_config(k=2, social=True), num_pes=4, seed=5)
        assert two.cut <= 1.02 * one.cut


class TestPublicApi:
    def test_sequential_path(self):
        g = load_instance("amazon")
        res = partition_graph(g, k=2, preset="fast", seed=1)
        assert res.num_pes == 1
        assert res.sim_time is None
        assert res.cut == edge_cut(g, res.partition)

    def test_parallel_path(self):
        g = load_instance("amazon")
        res = partition_graph(g, k=2, preset="fast", num_pes=4, machine=MACHINE_B, seed=1)
        assert res.num_pes == 4
        assert res.sim_time > 0

    def test_unknown_preset(self):
        g = rgg(8, seed=0)
        with pytest.raises(ValueError, match="preset"):
            partition_graph(g, k=2, preset="turbo")

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True], ids=repr)
    def test_num_pes_must_be_a_positive_int(self, bad):
        # 0 and -3 used to run sequentially without a word, 2.5 died with
        # a TypeError inside the launcher.
        g = rgg(8, seed=0)
        with pytest.raises(ValueError, match=rf"num_pes.*{bad!r}"):
            partition_graph(g, k=2, num_pes=bad)

    def test_config_with_a_different_k_is_rejected(self):
        # Used to return config.k = 4 blocks for a k = 8 request, silently.
        g = rgg(8, seed=0)
        with pytest.raises(ValueError, match=r"k=8.*config\.k=4"):
            partition_graph(g, 8, config=fast_config(k=4))

    def test_result_says_whether_it_is_feasible(self):
        # rmat(15) at p = 4 used to return block 3 at 4 264 > Lmax 4 218;
        # with its 11 651 isolated nodes placed last it keeps the bound.
        g = rmat(15, seed=1)
        for num_pes in (1, 2, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = partition_graph(g, 8, preset="fast", num_pes=num_pes, seed=0)
            assert res.feasible is True
            assert res.quality.max_block_weight <= res.lmax == 4218
        # ROADMAP's balance leak on a graph without isolated nodes: at
        # p = 4 KaFFPaE hands back an overweight coarsest partition that
        # refinement cannot repair.  The result has to say so.
        g = web_copy_graph(32768, out_degree=16, copy_probability=0.8, seed=1)
        with pytest.warns(RuntimeWarning, match=r"weighs 1060 > Lmax = 1054") as caught:
            res = partition_graph(g, 32, preset="fast", num_pes=4, seed=1)
        assert len(caught) == 1
        assert res.feasible is False
        assert f"block {int(np.argmax(res.quality.block_weights))} " in str(caught[0].message)

    def test_planted_partition_quality(self):
        g, truth = planted_partition(2, 128, p_in=0.25, p_out=0.01, seed=0)
        # planted graphs have Poisson-ish degrees, so auto-detection would
        # (wrongly for this purpose) pick the mesh factor: pass the hint
        res = partition_graph(g, k=2, num_pes=4, seed=0,
                              config=fast_config(k=2, social=True))
        assert res.cut <= 1.6 * edge_cut(g, truth)
        seq = partition_graph(g, k=2, seed=0, config=fast_config(k=2, social=True))
        assert seq.cut <= 1.1 * edge_cut(g, truth)

    def test_explicit_config_overrides_preset(self):
        g = rgg(9, seed=0)
        res = partition_graph(g, k=4, config=minimal_config(k=4, social=False), seed=0)
        assert res.config.num_vcycles == 1
        check_partition(g, res.partition, 4, epsilon=0.03)
