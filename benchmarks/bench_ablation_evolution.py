"""A3 — ablation: evolutionary initial partitioning on the coarsest graph.

What does KaFFPaE buy over a single engine run?  Compare, on the same
coarsest-level task: (a) one KaFFPa run, (b) KaFFPaE with an initial
population only (the fast configuration's budget) and (c) KaFFPaE with
optimisation rounds (eco's budget).  Run on the replicated coarsest
graphs the real pipeline produces.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table, write_report
from repro.core import LocalVcycleBackend, fast_config
from repro.dist import run_spmd
from repro.engine.vcycle import run_coarsening
from repro.evolutionary import KaffpaeOptions, kaffpae_partition
from repro.kaffpa import kaffpa_partition
from repro.generators import load_instance
from repro.graph import max_block_weight_bound
from repro.metrics import edge_cut


def run_experiment() -> str:
    K = 8
    rows = []
    for name in ("uk-2002", "eu-2005"):
        graph = load_instance(name, seed=0)
        # stop coarsening early so the coarsest problem is rich enough for
        # the EA to matter (the paper's coarsest has 10 000 * k nodes)
        config = fast_config(k=K, social=True, coarsest_nodes_per_block=60)
        # contraction keeps the total weight, so Lmax is the coarsest graph's too
        lmax = max_block_weight_bound(graph, K, config.epsilon)
        levels, _ = run_coarsening(
            LocalVcycleBackend(graph, config, np.random.default_rng(0), lmax),
            config, lmax, 14.0,
        )
        coarsest = levels[-1].coarse if levels else graph

        single = np.mean([
            edge_cut(coarsest, kaffpa_partition(coarsest, K, lmax,
                                                np.random.default_rng(seed)))
            for seed in range(3)
        ])

        def ea(rounds: int, seed: int) -> int:
            def program(comm):
                return kaffpae_partition(
                    comm, coarsest, K, lmax,
                    KaffpaeOptions(population_size=8, rounds=rounds),
                )
            result = run_spmd(4, program, seed=seed)
            return edge_cut(coarsest, result.value)

        pop_only = np.mean([ea(0, seed) for seed in range(2)])
        with_rounds = np.mean([ea(12, seed) for seed in range(2)])
        rows.append([
            name, f"{coarsest.num_nodes:,}",
            f"{single:,.0f}", f"{pop_only:,.0f}", f"{with_rounds:,.0f}",
        ])
    table = format_table(
        f"Ablation A3: coarsest-level partitioning (cut on the coarsest graph, k={K})",
        ["graph", "coarsest n", "single KaFFPa", "KaFFPaE pop-only (fast)",
         "KaFFPaE +12 rounds (eco)"],
        rows,
    )
    return table + (
        "Expected: population-best <= single run; combine/mutation rounds "
        "improve further (the eco configuration's quality source).\n"
    )


def test_ablation_evolution(run_once):
    report = run_once(run_experiment)
    write_report("ablation_evolution", report)
    assert "KaFFPaE" in report
