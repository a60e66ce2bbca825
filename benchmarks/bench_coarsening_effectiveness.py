"""E7 — coarsening effectiveness (paper Section V-B, in-text numbers).

The paper's diagnosis in one table: on a web graph, *one* cluster-
contraction step shrinks the node count by about two orders of magnitude
and the edge count by a factor of ~300, while matching-based coarsening
achieves less than a factor-of-two reduction before stalling.  On mesh
networks both schemes behave similarly (matching halves; clustering with
the mesh factor degenerates to pairwise merging).
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table, write_report
from repro.core import LocalVcycleBackend, fast_config
from repro.engine.vcycle import run_coarsening
from repro.generators import INSTANCES, load_instance
from repro.kaffpa import match_and_contract
from repro.graph import max_block_weight_bound


def run_experiment() -> str:
    rows = []
    for name in ("uk-2007", "sk-2005", "eu-2005", "rgg26", "hugebubbles"):
        graph = load_instance(name, seed=0)
        kind = INSTANCES[name].kind
        rng = np.random.default_rng(0)
        lmax = max_block_weight_bound(graph, 2, 0.03)

        matched = match_and_contract(
            graph, rng, max_node_weight=max(1, int(lmax / 1.3))
        ).coarse
        config = fast_config(k=2, social=(kind == "S"))
        levels, _ = run_coarsening(
            LocalVcycleBackend(graph, config, np.random.default_rng(0), lmax),
            config, lmax, 14.0 if kind == "S" else 20_000.0,
        )
        clustered = levels[0].coarse if levels else graph

        rows.append([
            name,
            kind,
            f"{graph.num_nodes:,}",
            f"{graph.num_edges:,}",
            f"{graph.num_nodes / max(1, matched.num_nodes):.1f}x",
            f"{graph.num_edges / max(1, matched.num_edges):.1f}x",
            f"{graph.num_nodes / max(1, clustered.num_nodes):.0f}x",
            f"{graph.num_edges / max(1, clustered.num_edges):.0f}x",
        ])
    table = format_table(
        "Coarsening effectiveness: one matching step vs one cluster-contraction step",
        ["graph", "type", "n", "m", "match n-shrink", "match m-shrink",
         "cluster n-shrink", "cluster m-shrink"],
        rows,
    )
    return table + (
        "Paper reference (uk-2007): cluster contraction ~100x fewer nodes and "
        "~300x fewer edges in one step; matching <2x before ParMetis stops.\n"
    )


def test_coarsening_effectiveness(run_once):
    report = run_once(run_experiment)
    write_report("coarsening_effectiveness", report)
    assert "cluster n-shrink" in report
