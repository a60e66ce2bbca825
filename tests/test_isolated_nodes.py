"""Isolated nodes leave before the V-cycles and come back last.

Both pipelines (``sequential_partition`` and every rank of
``parhip_program``) hand their V-cycles only the nodes of degree > 0,
held to the full graph's Lmax, and then put every isolated node,
heaviest first, into the block that is lightest at that moment.
"""

from __future__ import annotations

import inspect
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.partitioner
import repro.dist.dist_partitioner
from repro import partition_graph
from repro.core import detect_social, fast_config
from repro.core.isolated import _place_isolated
from repro.core.multilevel import LocalVcycleBackend
from repro.engine.vcycle import iterate_vcycles, run_vcycle
from repro.evolutionary.kaffpae import kaffpae_partition
from repro.dist.dist_partitioner import parhip_vcycles
from repro.dist.runtime import run_spmd, run_spmd_processes
from repro.generators import (
    barabasi_albert,
    delaunay,
    powerlaw_cluster,
    rmat,
    web_copy_graph,
)
from repro.graph import Graph, empty_graph, from_edges, max_block_weight_bound
from repro.kaffpa.driver import kaffpa_partition
from repro.metrics import evaluate_partition
from repro.obsv import TRACER, build_run_summary, render_analysis


def _greedy(block_weights: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The placement rule, one node at a time (the oracle)."""
    current = block_weights.astype(np.int64).copy()
    placed = np.empty(weights.size, dtype=np.int64)
    for v in sorted(range(weights.size), key=lambda v: (-weights[v], v)):
        placed[v] = int(np.argmin(current))  # lowest id among the lightest
        current[placed[v]] += weights[v]
    return placed


def _no_vcycles(*args, **kwargs):
    raise AssertionError("the V-cycles ran on a graph without edges")


class TestDegenerateInputs:
    @pytest.mark.parametrize("num_pes", [1, 2, 4])
    @pytest.mark.parametrize("n,k", [(10, 4), (3, 4), (1, 1)])
    def test_edgeless_graph_runs_no_vcycle(self, monkeypatch, n, k, num_pes):
        monkeypatch.setattr(repro.core.partitioner, "iterate_vcycles", _no_vcycles)
        monkeypatch.setattr(repro.dist.dist_partitioner, "parhip_vcycles", _no_vcycles)
        res = partition_graph(empty_graph(n), k, num_pes=num_pes)
        weights = np.bincount(res.partition, minlength=k)
        assert weights.max() <= -(-n // k)
        assert weights.sum() == n
        assert res.cut == 0 and res.feasible

    @pytest.mark.parametrize("num_pes", [1, 2])
    def test_one_edge_more_blocks_than_nodes(self, num_pes):
        g = from_edges(3, [(0, 2)])
        res = partition_graph(g, 4, num_pes=num_pes)
        assert res.lmax == 1 and res.feasible
        assert len(set(res.partition.tolist())) == 3
        assert res.cut == 1

    @pytest.mark.parametrize("num_pes", [1, 2])
    def test_one_edge_among_isolated_nodes(self, num_pes):
        g = from_edges(12, [(3, 7)])
        res = partition_graph(g, 2, num_pes=num_pes)
        assert res.feasible
        assert sorted(np.bincount(res.partition, minlength=2).tolist()) == [6, 6]
        assert res.cut == int(res.partition[3] != res.partition[7])

    def test_an_isolated_node_heavier_than_lmax_is_the_infeasible_case(self):
        vwgt = np.ones(9, dtype=np.int64)
        vwgt[8] = 100
        g = from_edges(9, [(i, i + 1) for i in range(7)], vwgt=vwgt)
        with pytest.warns(RuntimeWarning, match="infeasible partition") as caught:
            res = partition_graph(g, 2)
        # (with no compiler, the kernels' fallback notice may come first)
        (warning,) = [w for w in caught if "infeasible" in str(w.message)]
        assert res.feasible is False
        heavy = int(res.partition[8])
        assert res.quality.block_weights[heavy] == res.quality.max_block_weight
        assert f"block {heavy} weighs {res.quality.max_block_weight} > Lmax = 55" \
            in str(warning.message)

    def test_weightless_connected_part(self):
        vwgt = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        res = partition_graph(from_edges(5, [(0, 1), (1, 2)], vwgt=vwgt), 2)
        assert res.feasible
        assert sorted(res.quality.block_weights) == [1, 1]


class TestPlacement:
    def test_heaviest_first_into_the_lightest_block(self):
        # weights 5 (node 1), 5 (node 3), 3, 1: 5 -> block 0, 5 -> block 1,
        # 3 -> block 0 (5 = 5, lower id), 1 -> block 1 (5 < 8)
        weights = np.array([1, 5, 3, 5], dtype=np.int64)
        placed = _place_isolated(np.zeros(2, dtype=np.int64), weights)
        assert placed.tolist() == [1, 0, 0, 1]

    def test_heaviest_first_through_the_api(self):
        vwgt = np.array([1, 1, 1, 1, 7, 2, 4], dtype=np.int64)
        g = from_edges(7, [(0, 1), (2, 3)], vwgt=vwgt)
        res = partition_graph(g, 2)
        before = np.bincount(res.partition[:4], weights=vwgt[:4], minlength=2)
        assert np.array_equal(res.partition[4:], _greedy(before, vwgt[4:]))

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=12), st.integers(1, 300))
    def test_unit_weights_water_fill_is_the_greedy(self, block_weights, units):
        block_weights = np.array(block_weights, dtype=np.int64)
        ones = np.ones(units, dtype=np.int64)
        assert np.array_equal(_place_isolated(block_weights, ones),
                              _greedy(block_weights, ones))

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8),
           st.lists(st.integers(1, 9), min_size=1, max_size=40))
    def test_weighted_placement_is_the_greedy(self, block_weights, weights):
        block_weights = np.array(block_weights, dtype=np.int64)
        weights = np.array(weights, dtype=np.int64)
        assert np.array_equal(_place_isolated(block_weights, weights),
                              _greedy(block_weights, weights))


class TestAbsoluteBound:
    @pytest.mark.parametrize("num_pes", [1, 2])
    def test_every_bound_of_a_run_is_the_full_lmax(self, monkeypatch, num_pes):
        """The one Lmax of the call reaches every V-cycle and every
        coarsest-level partitioner, with isolated nodes set apart or not."""
        originals = (run_vcycle, kaffpa_partition, kaffpae_partition)
        seen = {original.__name__: [] for original in originals}

        def spy(original):
            signature = inspect.signature(original)

            def recording(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments["lmax"]
                seen[original.__name__].append(bound)
                return original(*args, **kwargs)
            return recording

        for original in originals:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    vars(module).get(original.__name__) is original
                ):
                    monkeypatch.setattr(module, original.__name__, spy(original))
        for g in (rmat(10, seed=1), _connected("ba1024")):
            for bounds in seen.values():
                bounds.clear()
            res = partition_graph(g, 4, num_pes=num_pes, seed=0)
            assert seen["run_vcycle"] and seen["kaffpa_partition"]
            assert bool(seen["kaffpae_partition"]) == (num_pes > 1)
            assert {b for bounds in seen.values() for b in bounds} == {res.lmax}

    def test_the_vcycles_see_only_the_connected_part(self, monkeypatch):
        g = rmat(10, seed=1)
        calls = []

        def recording(backend, config, lmax, *args):
            calls.append((backend.finest, config, lmax))
            return iterate_vcycles(backend, config, lmax, *args)

        monkeypatch.setattr(repro.core.partitioner, "iterate_vcycles", recording)
        res = partition_graph(g, 4, seed=0)
        ((sub, config, lmax),) = calls
        assert sub.num_nodes == g.num_nodes - 196
        assert sub.num_arcs == g.num_arcs
        assert np.diff(sub.xadj).all()
        assert config is res.config and lmax == res.lmax
        # the bound is the full graph's, not one the part would derive
        assert max_block_weight_bound(sub, 4, config.epsilon) < lmax

    @pytest.mark.parametrize("num_pes", [1, 2])
    def test_quality_is_that_of_the_whole_graph(self, num_pes):
        g = rmat(10, seed=1)
        res = partition_graph(g, 4, num_pes=num_pes, seed=0)
        assert res.quality == evaluate_partition(g, res.partition, 4)


@lru_cache(maxsize=None)
def _connected(name: str) -> Graph:
    return {
        "del12": lambda: delaunay(12),
        "ba1024": lambda: barabasi_albert(1024, 4, seed=2),
        "web4096": lambda: web_copy_graph(4096, out_degree=16, copy_probability=0.8,
                                          seed=1),
        "plc4096": lambda: powerlaw_cluster(4096, attach=7, triad_probability=0.5,
                                            seed=1),
    }[name]()


@pytest.mark.parametrize("num_pes,backend", [(1, None), (2, "spmd"), (4, "spmd"),
                                             (2, "process")])
@pytest.mark.parametrize("name", ["del12", "ba1024", "web4096", "plc4096"])
def test_without_isolated_nodes_the_call_is_the_vcycles(name, num_pes, backend):
    """Bit for bit what the V-cycles alone return on the whole graph."""
    g = _connected(name)
    assert np.diff(g.xadj).all()
    config = fast_config(k=8)
    res = partition_graph(g, 8, config=config, num_pes=num_pes, seed=3, backend=backend)
    lmax = res.lmax
    if num_pes == 1:
        rng, social = np.random.default_rng(3), detect_social(g)
        direct = iterate_vcycles(
            LocalVcycleBackend(g, config, rng, lmax), config, lmax,
            lambda cycle: config.cluster_factor(cycle, social, rng),
        ).partition
    elif backend == "spmd":
        direct = run_spmd(num_pes, parhip_vcycles, g, config, lmax, 3, seed=3).value[0]
    else:
        direct = run_spmd_processes(num_pes, parhip_vcycles, config, lmax, 3, graph=g,
                                    seed=3).value[0]
    assert np.array_equal(res.partition, direct)


def test_thread_and_process_ranks_agree_across_the_split():
    g = rmat(11, seed=1)
    threads = partition_graph(g, 4, num_pes=2, seed=1, backend="spmd")
    processes = partition_graph(g, 4, num_pes=2, seed=1, backend="process")
    assert np.array_equal(threads.partition, processes.partition)
    assert threads.quality == processes.quality


@pytest.mark.parametrize("name,isolated", [("rmat10", 196), ("ba1024", 0)])
def test_run_json_counts_isolated_nodes(name, isolated):
    g = rmat(10, seed=1) if name == "rmat10" else _connected(name)
    TRACER.enable()
    try:
        partition_graph(g, 4, seed=0)
    finally:
        TRACER.disable()
    summary = build_run_summary(TRACER.snapshot())
    TRACER.reset()
    assert summary["counts"]["isolated_nodes"] == isolated
    finest = [row for row in summary["levels"] if row["level"] == 0]
    assert {row["nodes"] for row in finest} == {g.num_nodes - isolated}
    row = next(line.split() for line in render_analysis(summary).splitlines()
               if line.strip().startswith("isolated_nodes"))
    assert row == ["isolated_nodes", f"{isolated:,}"]
