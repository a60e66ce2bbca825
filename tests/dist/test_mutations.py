"""The mutation table: which catcher reports each seeded SPMD hazard.

Every row seeds one hazard into a temporary copy of ``src/repro`` — the
real SPMD code, not a fixture — and asserts what reports it and what the
report names.  A catcher earns its place here, and one proposed
tomorrow is decided by adding its row (``docs/analysis.md`` has the
table with timings).

* most rows run one small traced p = 2 ``partition_graph`` from the
  copy in a subprocess (default arguments, no environment variable) and
  read the error it dies with: the collective-order check names the
  collective where the ranks part, a read-only CSR buffer the written
  line;
* the dropped-work row compares the run's summed ``CommStats.work_units``
  with the value pinned in ``tests/engine/golden_partitions.json``.

A global or unseeded RNG goes unreported at run time (a golden hash
stops matching, which names no line); its catcher is the ``rng.seeded``
rule of ``tests/test_structure.py``, which plants the table's two RNG
hazards.  ``labels.astype(np.int32)`` in the contraction has no catcher
and no instance that overflows; ``docs/analysis.md`` records it.

A site that no longer matches fails with "mutation site moved".
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
GOLDEN = json.loads((ROOT / "tests" / "engine" / "golden_partitions.json").read_text())

_GUARD = (
    "import sys, repro\n"
    "assert repro.__file__.startswith(sys.argv[1]), repro.__file__\n"
)

#: one traced p = 2 call through the public API (``level_cut`` only runs
#: under the tracer)
_PARTITION = _GUARD + (
    "from repro.api import partition_graph\n"
    "from repro.generators import rmat\n"
    "from repro.obsv import TRACER\n"
    "TRACER.enable()\n"
    "partition_graph(rmat(9, seed=1), 4, preset='fast', num_pes=2, seed=1)\n"
)

#: the ``parallel/rmat10/fast/p4`` golden instance, printing its work units
_WORK = _GUARD + (
    "from repro.core import fast_config\n"
    "from repro.dist.dist_partitioner import parhip_vcycles\n"
    "from repro.dist.runtime import run_spmd\n"
    "from repro.generators import rmat\n"
    "from repro.graph import max_block_weight_bound\n"
    "g = rmat(10, seed=1)\n"
    "res = run_spmd(4, parhip_vcycles, g, fast_config(k=4),\n"
    "               max_block_weight_bound(g, 4, 0.03), 31, seed=31)\n"
    "print(repr(res.total_work))\n"
)


@dataclass(frozen=True)
class Mutation:
    name: str
    file: str                              #: relative to src/repro
    edits: tuple[tuple[str, str], ...]     #: exact (old, new) substitutions
    runtime: str                           #: error the p = 2 run must die with
    runtime_at: tuple[str, str] = ("", "")  #: (file, text) of the line it names
    #: (file, old, new) substitutions in other files
    more_edits: tuple[tuple[str, str, str], ...] = ()


#: ``level_cut`` (an untagged allreduce) under a property that is true on
#: rank 0 only
_LEVEL_CUT_GUARD = ((
    '                    cuts["cut_refined"] = backend.level_cut(level, partition)\n'
    "                    level_span.set(**cuts)\n"
    "                    if backend.emits_events:\n",
    "                    if backend.emits_events:\n"
    '                        cuts["cut_refined"] = backend.level_cut(level, partition)\n'
    "                        level_span.set(**cuts)\n",
),)
_LEVEL_CUT = ("dist/dist_partitioner.py", "return int(comm.allreduce(local_cut)) // 2")

TABLE = [
    # -- divergence: the order check names the collective where the
    # -- streams part
    Mutation(
        # the LP phase's one allreduce, of [moved, *inflow]
        "allreduce-under-rank-guard", "engine/backend.py",
        ((
            "        sums = self.comm.allreduce(local)\n",
            "        sums = local\n"
            "        if self.comm.rank == 0:\n"
            "            sums = self.comm.allreduce(local)\n",
        ),),
        runtime="CollectiveMismatchError",
        runtime_at=("engine/backend.py", "sums = self.comm.allreduce(local)"),
    ),
    Mutation(
        "early-return-before-allreduce-max", "dist/dist_partitioner.py",
        ((
            "        return int(self.comm.allreduce_max(local_max))\n",
            "        if self.comm.rank != 0:\n"
            "            return local_max\n"
            "        return int(self.comm.allreduce_max(local_max))\n",
        ),),
        runtime="CollectiveMismatchError",
        runtime_at=("dist/dist_partitioner.py", "self.comm.allreduce_max(local_max)"),
    ),
    Mutation(
        # the collectives are files away (sclp -> backend); the level's
        # ghost weights are already held, so the first is the block weights'
        "early-return-around-helper", "dist/dist_partitioner.py",
        ((
            "    def refine_level(self, level, partition: np.ndarray) -> np.ndarray:\n",
            "    def refine_level(self, level, partition: np.ndarray) -> np.ndarray:\n"
            "        if self.comm.rank != 0:\n"
            "            return partition.copy()\n",
        ),),
        runtime="CollectiveMismatchError",
        runtime_at=("engine/backend.py", "return self.comm.allreduce(local)"),
    ),
    Mutation(
        # the guard is a property returning ``self.comm.rank == 0``
        "level-cut-under-rank-valued-property", "engine/vcycle.py", _LEVEL_CUT_GUARD,
        runtime="CollectiveMismatchError", runtime_at=_LEVEL_CUT,
    ),
    Mutation(
        # the same guard with the fitness allreduce untagged: rank 0's
        # level-cut allreduce meets rank 1's fitness allreduce, one op and
        # one sequence number, and only their call sites differ
        "untagged-allreduce-from-two-lines", "engine/vcycle.py", _LEVEL_CUT_GUARD,
        more_edits=((
            "dist/dist_partitioner.py",
            'self.comm.allreduce(local, tag="fitness")',
            "self.comm.allreduce(local)",
        ),),
        runtime="CollectiveMismatchError", runtime_at=_LEVEL_CUT,
    ),
    # -- in-place writes to CSR buffers: read-only arrays raise at the line
    Mutation(
        "write-through-self-attribute-chain", "engine/backend.py",
        ((
            "        return self.dgraph.node_weights(self.comm)\n",
            "        self.dgraph.adjwgt[...] = 1\n"
            "        return self.dgraph.node_weights(self.comm)\n",
        ),),
        runtime="ValueError", runtime_at=("engine/backend.py", "self.dgraph.adjwgt[...] = 1"),
    ),
    Mutation(
        "write-through-parameter", "dist/dist_contraction.py",
        ((
            "    n_local, size = dgraph.n_local, comm.size\n",
            "    n_local, size = dgraph.n_local, comm.size\n"
            "    dgraph.adjwgt[dgraph.adjwgt < 1] = 1\n",
        ),),
        runtime="ValueError",
        runtime_at=("dist/dist_contraction.py", "dgraph.adjwgt[dgraph.adjwgt < 1] = 1"),
    ),
    Mutation(
        "augmented-assignment-on-the-input-graph", "dist/dist_partitioner.py",
        ((
            "    social = config.social if config.social is not None else detect_social(graph)\n",
            "    graph.adjwgt *= 2\n"
            "    social = config.social if config.social is not None else detect_social(graph)\n",
        ),),
        runtime="ValueError", runtime_at=("dist/dist_partitioner.py", "graph.adjwgt *= 2"),
    ),
    Mutation(
        "mutator-method-on-a-local-alias", "dist/dist_partitioner.py",
        ((
            "    pieces = comm.allgather((src, dst, dgraph.adjwgt, dgraph.vwgt))\n",
            "    weights = dgraph.adjwgt\n"
            "    weights.sort()\n"
            "    pieces = comm.allgather((src, dst, weights, dgraph.vwgt))\n",
        ),),
        runtime="ValueError", runtime_at=("dist/dist_partitioner.py", "weights.sort()"),
    ),
    # -- dropped work accounting: no label moves, the simulated clock does
    Mutation(
        "every-comm-work-in-dist-contraction-dropped", "dist/dist_contraction.py",
        (
            ("    comm.work(n_local + int(np.count_nonzero(owned)))\n", ""),
            ("    comm.work(dgraph.num_arcs)\n", ""),
        ),
        runtime="work_units",
    ),
]


def _seed(mutation: Mutation, tmp_path: Path) -> Path:
    """Copy ``src/repro`` to ``tmp_path/repro`` and apply the edits."""
    copy = tmp_path / "repro"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    edits = [(mutation.file, old, new) for old, new in mutation.edits]
    for file, old, new in [*edits, *mutation.more_edits]:
        target = copy / file
        text = target.read_text()
        assert text.count(old) == 1, (
            f"mutation site moved: {mutation.name} expects exactly one "
            f"{old!r} in {file}"
        )
        target.write_text(text.replace(old, new))
    return copy


def _line_of(copy: Path, file: str, text: str) -> int:
    lines = [
        number
        for number, line in enumerate((copy / file).read_text().splitlines(True), 1)
        if text in line
    ]
    assert len(lines) == 1, f"{text!r} is on lines {lines} of {file}"
    return lines[0]


def _run(copy: Path, script: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(copy.parent)
    return subprocess.run(
        [sys.executable, "-c", script, str(copy)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("mutation", TABLE, ids=lambda m: m.name)
def test_runtime_catcher(mutation, tmp_path):
    copy = _seed(mutation, tmp_path)
    if mutation.runtime == "work_units":
        done = _run(copy, _WORK)
        assert done.returncode == 0, done.stderr
        pinned = GOLDEN["parallel_work/rmat10/fast/p4"]
        assert float(done.stdout) != pinned
        return
    done = _run(copy, _PARTITION)
    assert done.returncode != 0, "the seeded hazard went unreported"
    error = done.stderr.strip().splitlines()
    assert any(re.match(rf"(\w+\.)*{mutation.runtime}: ", line) for line in error), \
        done.stderr
    if mutation.runtime == "ValueError":
        assert "read-only" in done.stderr
    file, text = mutation.runtime_at
    line = _line_of(copy, file, text)
    # ``file.py:12 in func`` in a call-site tag, ``file.py", line 12`` in
    # a traceback
    named = rf'{re.escape(Path(file).name)}(:|", line ){line}\b'
    assert re.search(named, done.stderr), done.stderr
