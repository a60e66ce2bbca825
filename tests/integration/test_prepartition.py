"""Tests for the prepartitioned-input scenario (paper future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import partition_graph
from repro.core import fast_config, minimal_config
from repro.generators import delaunay, random_geometric_graph
from repro.graph import GraphError, check_partition, block_weights, max_block_weight_bound
from repro.kaffpa import coordinate_bisection
from repro.metrics import edge_cut


@pytest.fixture(scope="module")
def rgg_with_positions():
    return random_geometric_graph(1024, seed=3, return_positions=True)


class TestCoordinateBisection:
    def test_balanced_blocks(self, rgg_with_positions):
        graph, pos = rgg_with_positions
        part = coordinate_bisection(pos, 8)
        counts = np.bincount(part, minlength=8)
        assert counts.max() - counts.min() <= 8  # near-even split

    def test_geometry_gives_decent_cut(self, rgg_with_positions):
        graph, pos = rgg_with_positions
        part = coordinate_bisection(pos, 4)
        # geometric stripes on an RGG cut far less than random assignment
        rng = np.random.default_rng(0)
        random_part = rng.integers(0, 4, size=graph.num_nodes)
        assert edge_cut(graph, part) < 0.3 * edge_cut(graph, random_part)

    def test_k_one(self, rgg_with_positions):
        _, pos = rgg_with_positions
        assert np.all(coordinate_bisection(pos, 1) == 0)


class TestPrepartitionedInput:
    def test_sequential_never_worse_than_balanced_prepartition(self, rgg_with_positions):
        graph, pos = rgg_with_positions
        k = 4
        pre = coordinate_bisection(pos, k)
        lmax = max_block_weight_bound(graph, k, 0.03)
        assert block_weights(graph, pre, k).max() <= lmax
        result = partition_graph(
            graph, k=k, config=minimal_config(k=k, social=False), seed=0,
            initial_partition=pre,
        )
        assert result.cut <= edge_cut(graph, pre)
        check_partition(graph, result.partition, k, epsilon=0.03)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_cycle_builds_on_a_mesh_prepartition(self, seed):
        """The V-cycle contract for ``initial_partition=``: cycle 0 starts
        uncoarsening no worse than the prepartition, every later cycle no
        worse than the best before it (before: 831 after 574 at seed 0,
        and the call handed the prepartition back unchanged)."""
        from repro.obsv import TRACER

        graph, pos = delaunay(12, seed=1, return_positions=True)
        k = 8
        pre = coordinate_bisection(pos, k)
        assert block_weights(graph, pre, k).max() <= max_block_weight_bound(graph, k, 0.03)
        TRACER.disable()
        TRACER.reset()
        TRACER.enable()
        try:
            result = partition_graph(graph, k=k, config=fast_config(k=k), seed=seed,
                                     initial_partition=pre)
        finally:
            TRACER.disable()
        events = [r for r in TRACER.snapshot() if r["type"] == "event"]
        TRACER.reset()
        start = [e["attrs"]["cut"] for e in events if e["name"] == "initial.cut"]
        final = [e["attrs"]["cut_refined"] for e in events
                 if e["name"] == "uncoarsen.level" and e["attrs"]["level"] == 0]
        best = edge_cut(graph, pre)
        assert len(start) == len(final) == 2
        for cycle_start, cycle_final in zip(start, final):
            assert cycle_start <= best
            best = min(best, cycle_final)
        assert result.cut == best < edge_cut(graph, pre)
        check_partition(graph, result.partition, k, epsilon=0.03)

    def test_parallel_accepts_prepartition(self, rgg_with_positions):
        graph, pos = rgg_with_positions
        k = 4
        pre = coordinate_bisection(pos, k)
        result = partition_graph(
            graph, k=k, config=fast_config(k=k, social=False), num_pes=4,
            seed=0, initial_partition=pre,
        )
        assert result.cut <= edge_cut(graph, pre)
        check_partition(graph, result.partition, k, epsilon=0.03)

    @pytest.mark.parametrize("num_pes", [1, 2])
    def test_isolated_nodes_keep_the_guarantee(self, monkeypatch, num_pes):
        """The prepartition restricted to the connected part seeds the
        V-cycles, and the result is still no worse than it."""
        import repro.core.partitioner
        import repro.dist.dist_partitioner

        graph, pos = random_geometric_graph(1024, radius=0.025, seed=3,
                                            return_positions=True)
        keep = np.flatnonzero(np.diff(graph.xadj))
        assert graph.num_nodes - keep.size == 130
        k = 4
        pre = coordinate_bisection(pos, k)
        assert block_weights(graph, pre, k).max() <= max_block_weight_bound(graph, k, 0.03)
        module, name = (
            (repro.core.partitioner, "iterate_vcycles") if num_pes == 1
            else (repro.dist.dist_partitioner, "parhip_vcycles"))
        cycles = getattr(module, name)
        seeds = []

        def recording(*args):
            seeds.append(args[-1])  # both take the seed last
            return cycles(*args)

        monkeypatch.setattr(module, name, recording)
        result = partition_graph(graph, k=k, config=fast_config(k=k, social=False),
                                 num_pes=num_pes, seed=0, initial_partition=pre)
        assert len(seeds) == num_pes  # once per rank
        assert all(np.array_equal(seeded, pre[keep]) for seeded in seeds)
        assert result.cut <= edge_cut(graph, pre)
        check_partition(graph, result.partition, k, epsilon=0.03)

    @pytest.mark.parametrize("num_pes", [1, 2])
    @pytest.mark.parametrize("bad", ["short", "long", "float", "label k"])
    def test_a_malformed_prepartition_is_refused_naming_it(self, bad, num_pes):
        """Checked once where both pipelines enter: before, at p = 2 a long
        array ran, a short one died in numpy and float labels were cut."""
        graph = delaunay(8, seed=1)
        k, n = 4, graph.num_nodes
        pre = {
            "short": np.zeros(n - 1, dtype=np.int64),
            "long": np.zeros(n + 1, dtype=np.int64),
            "float": np.zeros(n, dtype=np.float64),
            "label k": np.full(n, k, dtype=np.int64),
        }[bad]
        with pytest.raises(GraphError, match="initial_partition"):
            partition_graph(graph, k, num_pes=num_pes, initial_partition=pre)

    def test_prepartition_much_better_than_its_input(self, rgg_with_positions):
        """The warm start improves massively on the prepartition itself.

        (It can end slightly above a cold start: protecting the
        prepartition's cut edges constrains coarsening — the scenario's
        value is the guarantee and the saved work, not a better optimum.)
        """
        graph, pos = rgg_with_positions
        k = 8
        pre = coordinate_bisection(pos, k)
        warm = partition_graph(graph, k=k, config=fast_config(k=k, social=False),
                               seed=1, initial_partition=pre)
        cold = partition_graph(graph, k=k, config=fast_config(k=k, social=False),
                               seed=1)
        assert warm.cut <= 0.7 * edge_cut(graph, pre)
        assert warm.cut <= 1.5 * cold.cut