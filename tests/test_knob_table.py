"""Every settable value has a row in the Knobs table of docs/architecture.md.

The literals below mirror the rows of that table that stay.  They are
checked against the code (dataclass fields, signatures, the argparse
tree; ``ENV_READS`` by a rule of ``tests/test_structure.py``) and
against the document, so an option added anywhere fails here until its
row, and with it its second user, is written.  A field that became a
constant is pinned where it is used: ``tests/core/test_multilevel.py``
(cluster factors) and ``tests/core/test_coarsening.py``
(``MIN_SHRINK_FACTOR``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
from pathlib import Path

from repro.api import partition_graph, partition_oocore
from repro.baselines import parmetis_partition
from repro.cli import build_parser
from repro.core.clustering import cluster_graph
from repro.core.config import PartitionConfig
from repro.core.partitioner import sequential_partition
from repro.dist.dist_partitioner import parallel_partition
from repro.dist.runtime import run_spmd, run_spmd_processes
from repro.engine.backend import BACKENDS
from repro.engine.sclp import run_sclp
from repro.evolutionary import combine, mutate_perturb, mutate_vcycle, rumor_exchange
from repro.evolutionary.kaffpae import KaffpaeOptions, kaffpae_partition
from repro.kaffpa.driver import KaffpaOptions, kaffpa_partition

ROOT = Path(__file__).resolve().parents[1]

CONFIG_FIELDS = {
    PartitionConfig: (
        "k", "epsilon", "coarsening_iterations", "refinement_iterations",
        "num_vcycles", "coarsest_nodes_per_block", "coarsening_ordering",
        "flow_refinement", "evolution_rounds", "social", "sanitize",
        "spmd_timeout", "lp_chunk_size",
    ),
    KaffpaOptions: (
        "coarsest_nodes", "initial_attempts", "refinement_passes",
        "flow_refinement_below",
    ),
    KaffpaeOptions: ("population_size", "rounds", "engine"),
}

KEYWORDS = {
    partition_graph: ("epsilon", "preset", "num_pes", "machine", "seed", "config",
                      "initial_partition", "backend"),
    partition_oocore: ("seed", "iterations", "config"),
    parallel_partition: ("config", "num_pes", "machine", "seed", "memory_budget",
                         "memory_scale", "replica_memory_scale",
                         "initial_partition", "backend"),
    sequential_partition: ("config", "seed", "input_partition"),
    run_spmd: ("machine", "seed", "timeout"),
    run_spmd_processes: ("graph", "machine", "seed", "sanitize", "timeout"),
    run_sclp: ("refine", "shares", "k", "ordering", "constraint", "chunk",
               "pin_sweep", "tie_seed", "delta", "band"),
    kaffpa_partition: ("options", "constraint", "seed_partition"),
    kaffpae_partition: ("options", "seed_individual"),
}

#: the evolutionary operators take the engine options and nothing else
OPERATOR_KEYWORDS = {
    combine: ("options",), mutate_vcycle: ("options",),
    mutate_perturb: (), rumor_exchange: (),
}

#: what is left of two option sets outside the counted entry points
#: (``cluster_graph``'s four tuning keywords, ``ParmetisOptions``): checked,
#: not counted
OUTSIDE_KEYWORDS = {
    cluster_graph: ("seed",),
    parmetis_partition: ("epsilon", "num_pes", "machine", "seed", "memory_budget",
                         "memory_scale"),
}

CLI_ARGUMENTS = {
    "partition": ("graph", "-k", "--epsilon", "--preset", "--num-pes", "--machine",
                  "--backend", "--seed", "--flows", "--lp-chunk", "--store",
                  "--resident-shards", "--initial-partition", "--trace", "--output"),
    "convert": ("input", "output", "--nodes-per-shard"),
    "generate": ("family", "--exponent", "--nodes", "--seed", "--output"),
    "evaluate": ("graph", "partition", "-k"),
    "cluster": ("graph", "--seed", "--output"),
    "analyze": ("events", "--output"),
    "instances": (),
}

ENV_READS = ("REPRO_BENCH_SEEDS",)
BACKEND_VALUES = ("spmd", "process")

#: what the table says is left (its "100 now")
SETTABLE_VALUES = 100


def _defaulted(function) -> tuple[str, ...]:
    return tuple(
        name for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    )


def _knobs_section() -> str:
    text = (ROOT / "docs" / "architecture.md").read_text()
    return text[text.index("\n## Knobs\n"):]


def test_config_fields_are_the_tabled_ones():
    for cls, fields in CONFIG_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, cls.__name__


def test_entry_point_keywords_are_the_tabled_ones():
    for function, keywords in {**KEYWORDS, **OPERATOR_KEYWORDS, **OUTSIDE_KEYWORDS}.items():
        assert _defaulted(function) == keywords, function.__name__


def test_cli_arguments_are_the_tabled_ones():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    found = {
        verb: tuple(
            action.option_strings[-1] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        )
        for verb, parser in subparsers.choices.items()
    }
    assert found == CLI_ARGUMENTS
    backend = next(action for action in subparsers.choices["partition"]._actions
                   if action.dest == "backend")
    assert tuple(backend.choices) == BACKENDS == BACKEND_VALUES


def test_every_surviving_value_has_a_row_and_the_count_is_the_tables():
    section = _knobs_section()
    rows = [f"`{cls.__name__}.{field}`" for cls, fields in CONFIG_FIELDS.items()
            for field in fields]
    rows += [f"`{function.__name__}({keyword}=)`" for function, keywords in KEYWORDS.items()
             for keyword in keywords]
    rows += [f"`repro {verb} {argument}`" for verb, arguments in CLI_ARGUMENTS.items()
             for argument in arguments]
    rows += [f"`{name}`" for name in ENV_READS]
    rows += [f"backend value `'{value}'`" for value in BACKEND_VALUES]
    for row in rows:
        assert f"\n| {row} |" in section, row
    assert len(rows) == SETTABLE_VALUES
    assert f"{SETTABLE_VALUES} now" in section
    # a surviving row says why it survives
    for line in section.splitlines():
        if line.startswith("| `") or line.startswith("| backend value"):
            verdict = line.rstrip(" |").rsplit("|", 1)[-1]
            assert any(word in verdict for word in
                       ("stays", "frozen", "deleted", "constant")), line
