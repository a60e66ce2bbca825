"""Cross-cutting invariant tests over the whole pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocalVcycleBackend, fast_config
from repro.engine.vcycle import run_coarsening
from repro.graph import contract, max_block_weight_bound, quotient_graph
from repro.generators import planted_partition, web_copy_graph
from repro.metrics import communication_volume, edge_cut, evaluate_partition


class TestQuotientPartitionDuality:
    def test_quotient_of_result_summarises_cut(self):
        g, _ = planted_partition(4, 50, seed=0)
        from repro import partition_graph

        res = partition_graph(g, k=4, config=fast_config(k=4, social=True), seed=0)
        q = quotient_graph(g, res.partition, k=4)
        assert q.total_edge_weight == res.cut
        assert q.total_node_weight == g.total_node_weight

    def test_hierarchy_cut_telescopes(self):
        """Cut of a partition is identical on every hierarchy level."""
        g = web_copy_graph(1200, seed=1)
        config = fast_config(k=2, social=True)
        lmax = max_block_weight_bound(g, 2, config.epsilon)
        levels, _ = run_coarsening(
            LocalVcycleBackend(g, config, np.random.default_rng(0), lmax), config, lmax, 14.0
        )
        coarsest = levels[-1].coarse
        rng = np.random.default_rng(1)
        coarse_part = rng.integers(0, 2, size=coarsest.num_nodes)
        cuts = [edge_cut(coarsest, coarse_part)]
        part = coarse_part
        for level in reversed(levels):
            part = part[level.fine_to_coarse]
            cuts.append(edge_cut(level.fine, part))
        assert len(set(cuts)) == 1

    def test_double_contraction_composes(self):
        g, _ = planted_partition(3, 40, seed=2)
        rng = np.random.default_rng(3)
        l1 = rng.integers(0, 30, size=g.num_nodes)
        r1 = contract(g, l1)
        l2 = rng.integers(0, 8, size=r1.coarse.num_nodes)
        r2 = contract(r1.coarse, l2)
        # composing the two mappings must equal contracting the composition
        direct = contract(g, l2[r1.fine_to_coarse][np.arange(g.num_nodes)])
        composed_map = r2.fine_to_coarse[r1.fine_to_coarse]
        assert r2.coarse == direct.coarse
        assert np.array_equal(composed_map, direct.fine_to_coarse)


class TestQualityBundleConsistency:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           k=st.integers(min_value=2, max_value=5))
    def test_bundle_fields_agree_with_direct_metrics(self, seed, k):
        g, _ = planted_partition(3, 30, seed=seed % 7)
        rng = np.random.default_rng(seed)
        part = rng.integers(0, k, size=g.num_nodes)
        q = evaluate_partition(g, part, k)
        assert q.cut == edge_cut(g, part)
        assert q.communication_volume == communication_volume(g, part)
        assert sum(q.block_weights) == g.total_node_weight
        assert q.max_block_weight == max(q.block_weights)
