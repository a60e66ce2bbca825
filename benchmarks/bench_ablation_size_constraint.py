"""A2 — ablation: the size-constraint factor f (Section V-A defaults).

The cluster bound is ``U = Lmax / f``.  The paper sets f = 14 on
social/web graphs and f = 20 000 on meshes in the first V-cycle, and
draws f in [10, 25] later.  This ablation sweeps f on one instance of
each class and reports the end-to-end cut plus the depth/size of the
hierarchy, showing why the defaults differ per class: small f (big
clusters) over-contracts meshes, huge f (tiny clusters) wastes the
community structure of web graphs.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table, write_report
from repro.core import LocalVcycleBackend, fast_config
from repro.engine.vcycle import run_coarsening, run_vcycle
from repro.generators import load_instance
from repro.graph import max_block_weight_bound
from repro.metrics import edge_cut

FACTORS = (4.0, 14.0, 100.0, 20_000.0)


def run_experiment() -> str:
    rows = []
    for name, social in (("uk-2002", True), ("rgg26", False)):
        graph = load_instance(name, seed=0)
        config = fast_config(k=2, social=social, num_vcycles=1)
        lmax = max_block_weight_bound(graph, 2, config.epsilon)
        for f in FACTORS:
            levels, _ = run_coarsening(
                LocalVcycleBackend(graph, config, np.random.default_rng(0), lmax),
                config, lmax, f,
            )
            cuts = []
            for seed in range(2):
                backend = LocalVcycleBackend(graph, config, np.random.default_rng(seed), lmax)
                part = run_vcycle(backend, config, lmax, f).partition
                cuts.append(edge_cut(graph, part))
            rows.append([
                name, f"{f:g}",
                f"{len(levels)}",
                f"{(levels[-1].coarse if levels else graph).num_nodes:,}",
                f"{np.mean(cuts):,.0f}",
            ])
    table = format_table(
        "Ablation A2: size-constraint factor f (U = Lmax/f), k=2, one V-cycle",
        ["graph", "f", "levels", "coarsest n", "avg cut"],
        rows,
    )
    return table + (
        "Paper defaults: f=14 on social/web, f=20000 on meshes; the overall "
        "performance is not sensitive to the exact value (Section IV-B).\n"
    )


def test_ablation_size_constraint(run_once):
    report = run_once(run_experiment)
    write_report("ablation_size_constraint", report)
    assert "coarsest n" in report
