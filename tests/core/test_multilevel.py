"""Tests for the sequential multilevel partitioner and V-cycles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LocalVcycleBackend,
    PartitionConfig,
    detect_social,
    eco_config,
    fast_config,
    minimal_config,
    sequential_partition,
)
from repro.engine.vcycle import run_vcycle
from repro.generators import load_instance, planted_partition, rgg
from repro.graph import check_partition, max_block_weight_bound
from repro.metrics import edge_cut
from repro.obsv import TRACER


def rng(seed=0):
    return np.random.default_rng(seed)


def lmax(graph, config):
    return max_block_weight_bound(graph, config.k, config.epsilon)


def one_vcycle(graph, config, bound, generator, seed_partition=None):
    """One V-cycle of the sequential backend at the first cycle's factor."""
    factor = config.cluster_factor(0, config.social, generator)
    backend = LocalVcycleBackend(graph, config, generator, bound)
    return run_vcycle(backend, config, bound, factor,
                      seed_partition=seed_partition).partition


class TestConfig:
    def test_presets(self):
        assert fast_config().num_vcycles == 2
        assert eco_config().num_vcycles == 5
        assert eco_config().evolution_rounds > 0
        assert minimal_config().num_vcycles == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionConfig(k=0)
        with pytest.raises(ValueError):
            PartitionConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            PartitionConfig(num_vcycles=0)

    @pytest.mark.parametrize("field,value", [
        ("k", 2.5), ("k", True), ("k", "4"),
        ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("coarsening_iterations", 2.5), ("refinement_iterations", -1),
        ("coarsest_nodes_per_block", 0), ("evolution_rounds", -3),
        ("coarsening_ordering", "bogus"),
    ])
    def test_bad_knob_fails_fast_naming_it(self, field, value):
        from repro.api import partition_graph

        message = rf"^{field} must .*, got {value!r}$"
        if field in ("k", "epsilon"):  # the two that partition_graph takes
            with pytest.raises(ValueError, match=message):
                partition_graph(rgg(6, seed=0), **{"k": 2, field: value})
        with pytest.raises(ValueError, match=message):
            PartitionConfig(**{field: value})

    @pytest.mark.parametrize("num_pes", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_seed_must_be_a_count(self, bad, num_pes):
        from repro.api import partition_graph

        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad!r}$"):
            partition_graph(rgg(6, seed=0), 2, num_pes=num_pes, seed=bad)

    def test_numpy_integer_k_is_an_integer(self):
        assert PartitionConfig(k=np.int64(4)).k == 4

    def test_cluster_factor_selection(self):
        config = fast_config()
        assert config.cluster_factor(0, social=True, rng=rng()) == 14.0
        assert config.cluster_factor(0, social=False, rng=rng()) == 20_000.0
        later = config.cluster_factor(1, social=True, rng=rng())
        assert 10.0 <= later <= 25.0

    def test_with_override(self):
        assert fast_config().with_(k=8).k == 8


class TestDetectSocial:
    def test_web_graph_is_social(self):
        assert detect_social(load_instance("uk-2002"))

    def test_mesh_is_not(self):
        assert not detect_social(rgg(10, seed=0))


class TestMultilevelPartition:
    def test_planted_partition_near_optimal(self):
        g, truth = planted_partition(2, 100, p_in=0.25, p_out=0.01, seed=0)
        config = fast_config(k=2, social=True)
        part = one_vcycle(g, config, lmax(g, config), rng(1))
        check_partition(g, part, 2, epsilon=0.03)
        optimal = edge_cut(g, truth)
        assert edge_cut(g, part) <= 1.3 * optimal

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_balanced_on_mesh(self, k):
        g = rgg(10, seed=1)
        config = fast_config(k=k, social=False)
        part = one_vcycle(g, config, lmax(g, config), rng(2))
        check_partition(g, part, k, epsilon=0.03)

    def test_input_partition_never_worsened(self):
        g = load_instance("amazon")
        config = fast_config(k=2, social=True)
        bound = lmax(g, config)
        first = one_vcycle(g, config, bound, rng(3))
        improved = one_vcycle(g, config, bound, rng(4), seed_partition=first)
        assert edge_cut(g, improved) <= edge_cut(g, first)
        assert np.bincount(improved, weights=g.vwgt, minlength=2).max() <= bound


class TestVcycles:
    def test_cuts_monotone_nonincreasing(self):
        """The ``vcycle`` spans' ``best_cut``: the cut of the partition kept
        after each cycle."""
        g = load_instance("youtube")
        config = eco_config(k=2, social=True, evolution_rounds=0)
        TRACER.enable()
        try:
            res = sequential_partition(g, config, seed=0)
        finally:
            TRACER.disable()
        spans = sorted(
            (r["attrs"] for r in TRACER.snapshot()
             if r["type"] == "span" and r["name"] == "vcycle"),
            key=lambda attrs: attrs["cycle"],
        )
        TRACER.reset()
        cuts = [attrs["best_cut"] for attrs in spans]
        assert len(cuts) == 5
        assert all(b <= a for a, b in zip(cuts, cuts[1:]))
        assert cuts[-1] == res.cut

    def test_more_cycles_not_worse_than_one(self):
        g = load_instance("amazon")
        one_cycle, two_cycles = minimal_config(k=2, social=True), fast_config(k=2, social=True)
        one = sequential_partition(g, one_cycle, seed=5)
        two = sequential_partition(g, two_cycles, seed=5)
        assert two.cut <= one.cut


class TestSequentialFacade:
    def test_flow_refinement_knob_reaches_the_sequential_pipeline(self, monkeypatch):
        """``config.flow_refinement`` is honoured at p = 1 (it used to be
        read by the distributed backend only and ignored here)."""
        from repro.kaffpa import flow

        real, calls = flow.flow_refinement, []
        monkeypatch.setattr(
            flow, "flow_refinement",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
        )
        g = rgg(10, seed=7)
        reached = {}
        for flows in (False, True):
            res = sequential_partition(
                g, fast_config(k=8, social=False, flow_refinement=flows), seed=3
            )
            check_partition(g, res.partition, 8, epsilon=0.03)
            reached[flows] = len(calls)
        assert reached[False] == 0 < reached[True]

    def test_result_bundle(self):
        g = load_instance("amazon")
        res = sequential_partition(g, fast_config(k=2, social=True), seed=0)
        assert res.cut == edge_cut(g, res.partition)
        assert res.quality.k == 2
        assert res.lmax == max_block_weight_bound(g, 2, 0.03) and res.feasible
        assert res.sim_time is None and res.num_pes == 1
        assert res.imbalance <= 0.03 + 1e-9

    def test_deterministic(self):
        g = load_instance("youtube")
        a = sequential_partition(g, fast_config(k=4, social=True), seed=9)
        b = sequential_partition(g, fast_config(k=4, social=True), seed=9)
        assert np.array_equal(a.partition, b.partition)

    def test_k_equals_one(self):
        g = rgg(9, seed=0)
        res = sequential_partition(g, fast_config(k=1, social=False), seed=0)
        assert res.cut == 0
        assert np.all(res.partition == 0)
