"""The structural rules of the tree, in one table.

Each rule holds the design to one implementation of something the
paper has once: one collective protocol, one size-constrained label
propagation for coarsening and refinement, one cut, one METIS reader,
integer-only kernels declared once, one shard mapper, one quotient
build, one Lmax decided at the pipeline entry, one partition result,
one iterated-V-cycle loop, one sequential V-cycle backend, no
module-level scipy import, one environment variable, one
``multiprocessing`` context, one pipe per process rank, randomness from
seeded generators only, and no trace of the retired static linter.  A
rule is a function of a tree root that returns its violations,
``path:line`` strings, empty on a tree that keeps it.

Every rule has a self-test: it copies the rule's scope into
``tmp_path``, plants the violation the rule exists to catch, and
expects the rule to fire.

A text rule reads every file under its scope, not only ``*.py``: a C
kernel, a fixture or a golden file counts, and ``benchmarks/*.py`` is
the top level of ``benchmarks/`` only.  Two kinds of file are left out:
this module, which spells out every pattern it forbids, and
``__pycache__`` bytecode, which holds this module's patterns as
constants once it has run, and the code of modules deleted since.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import pytest

from .test_knob_table import ENV_READS

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()


def files(root: Path, *scope: str) -> Iterator[Path]:
    """Every file under ``scope`` as ``grep -r`` reads it: a directory
    recursively (a symbolic link inside it is not followed), a file
    itself, ``dir/*.py`` the top level of ``dir``."""
    for entry in scope:
        if "*" in entry:
            paths = sorted(root.glob(entry))
        elif (root / entry).is_dir():
            paths = sorted(
                Path(top, name)
                for top, _dirs, names in os.walk(root / entry)
                for name in names
                if not os.path.islink(os.path.join(top, name))
            )
        else:
            paths = [root / entry]
        for path in paths:
            relative = path.relative_to(root)
            if "__pycache__" not in relative.parts and relative.as_posix() != SELF:
                yield path


def grep(pattern: str, root: Path, *scope: str) -> list[str]:
    """``path:line: text`` of every line under ``scope`` that ``pattern``
    matches."""
    regex = re.compile(pattern)
    found = []
    for path in files(root, *scope):
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        for number, line in enumerate(text.split("\n"), 1):
            if regex.search(line):
                found.append(f"{path.relative_to(root).as_posix()}:{number}: {line.strip()}")
    return found


def word(pattern: str) -> str:
    """``pattern`` as ``grep -w`` matches it: not inside a longer word."""
    return rf"(?<!\w)(?:{pattern})(?!\w)"


def absent(pattern: str, *scope: str) -> Callable[[Path], list[str]]:
    """The rule: no line under ``scope`` matches ``pattern``."""
    return lambda root: grep(pattern, root, *scope)


def present(pattern: str, path: str) -> Callable[[Path], list[str]]:
    """The rule: some line of ``path`` matches ``pattern``."""
    return lambda root: [] if grep(pattern, root, path) else [
        f"{path}: no line matches {pattern!r}"]


def absent_between(pattern: str, path: str, start: str, end: str) -> Callable[[Path], list[str]]:
    """The rule: no line of ``path`` in an ``awk '/start/,/end/'`` range
    matches ``pattern``."""
    def violations(root: Path) -> list[str]:
        found, inside = [], False
        lines = (root / path).read_text().split("\n")
        for number, line in enumerate(lines, 1):
            if not inside and re.search(start, line):
                inside = True
            if inside:
                if re.search(pattern, line):
                    found.append(f"{path}:{number}: {line.strip()}")
                if re.search(end, line):
                    inside = False
        return found
    return violations


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


# ----------------------------------------------------------------------
# The rules written as walks over the syntax tree
# ----------------------------------------------------------------------

METIS_READER = "src/repro/graph/io.py"
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def metis_reader(root: Path) -> list[str]:
    """``read_metis`` reads the header with regular expressions and hands
    the body to ``native.parse_metis``: no function of the METIS reader
    loops over lines or tokens in Python."""
    reader = [node for node in ast.walk(_parse(root / METIS_READER))
              if isinstance(node, ast.FunctionDef)
              and (node.name == "read_metis" or node.name.startswith("_metis"))]
    found = [f"{METIS_READER}:{node.lineno}: a Python loop in {func.name}"
             for func in reader for node in ast.walk(func) if isinstance(node, LOOPS)]
    if not any(isinstance(node, ast.Attribute) and node.attr == "parse_metis"
               for func in reader for node in ast.walk(func)):
        found.append(f"{METIS_READER}: read_metis does not call native.parse_metis")
    return found


def takes_epsilon(root: Path) -> list[str]:
    """Below the entry a layer takes Lmax: no function of ``kaffpa/``,
    ``evolutionary/`` or ``dist/`` has an ``epsilon`` parameter."""
    return [
        f"{path.relative_to(root).as_posix()}:{node.lineno}: {node.name} takes epsilon"
        for package in ("kaffpa", "evolutionary", "dist")
        for path in sorted((root / "src" / "repro" / package).rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "epsilon" in [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                          *node.args.kwonlyargs)]
    ]


#: the eight public partitioners, by the file that defines them
PARTITIONERS = {
    "src/repro/api.py": {"partition_graph", "partition_oocore"},
    "src/repro/core/partitioner.py": {"sequential_partition"},
    "src/repro/dist/dist_partitioner.py": {"parallel_partition"},
    "src/repro/baselines/parmetis_like.py": {"parmetis_partition"},
    "src/repro/baselines/recursive_bisection.py": {"scotch_partition"},
    "src/repro/baselines/trivial.py": {"hash_partition", "random_partition"},
}


def partitioners_return_the_result(root: Path) -> list[str]:
    """Each public partitioner is annotated to return ``PartitionResult``."""
    found = []
    for path, names in PARTITIONERS.items():
        returns = {node.name: node.returns and ast.unparse(node.returns)
                   for node in _parse(root / path).body
                   if isinstance(node, ast.FunctionDef)}
        found += [f"{path}: {name} -> {returns.get(name)}" for name in sorted(names)
                  if returns.get(name) != "PartitionResult"]
    return found


def result_built_in_finish(root: Path) -> list[str]:
    """``metrics.result.finish_partition`` is the only place that builds a
    ``PartitionResult``."""
    built, inside = set(), set()
    for path in files(root, "src", "tests", "examples", "tools", "benchmarks/*.py"):
        if path.suffix != ".py":
            continue
        where = path.relative_to(root).as_posix()
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            ) == "PartitionResult":
                built.add((where, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "finish_partition":
                inside |= {(where, n.lineno) for n in ast.walk(node)
                           if isinstance(n, ast.Call)}
    if not built:
        return ["no PartitionResult is built anywhere"]
    return [f"{where}:{line}: PartitionResult built outside finish_partition"
            for where, line in sorted(built - inside)]


VCYCLE_LOOP = r"range\(config.num_vcycles\)"
VCYCLE_FILE = "src/repro/engine/vcycle.py"


def vcycle_loop_lives_in_the_engine(root: Path) -> list[str]:
    """``engine/vcycle.py`` is the only file under ``src/repro`` with the
    cycle loop."""
    holders = sorted({line.split(":", 1)[0] for line in grep(VCYCLE_LOOP, root, "src/repro")})
    return [] if holders == [VCYCLE_FILE] else [f"the cycle loop is in {holders}"]


def vcycle_loop_once(root: Path) -> list[str]:
    """``engine/vcycle.py`` has the cycle loop once."""
    lines = grep(VCYCLE_LOOP, root, VCYCLE_FILE)
    return [] if len(lines) == 1 else lines or [f"{VCYCLE_FILE}: no cycle loop"]


#: a line that imports scipy at module level, and the file allowed one
MODULE_SCIPY = re.compile(r"^(import|from) scipy")
SCIPY_EXEMPT = "generators/delaunay.py"


def module_level_scipy_imports(root: Path) -> list[str]:
    """scipy is imported inside the functions that need it: no
    module-level ``import scipy`` / ``from scipy`` line in the package."""
    package = root / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).as_posix() == SCIPY_EXEMPT:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if MODULE_SCIPY.match(line):
                found.append(f"{path.relative_to(root).as_posix()}:{number}")
    return found


def environment_reads(root: Path) -> list[str]:
    """The package reads no environment variable but ``ENV_READS``.

    An ``ast`` walk names the key of every ``environ`` subscript,
    ``environ.get`` and ``getenv`` call (a computed key, or any other use
    of ``environ``/``getenv``, fails), and a line that says
    ``os.environ`` anywhere, comments and strings included, must name a
    tabled variable."""
    found, names, mentions = [], [], 0
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        where = path.relative_to(root).as_posix()
        text = path.read_text()
        for number, line in enumerate(text.splitlines(), 1):
            if "os.environ" in line and not any(name in line for name in ENV_READS):
                found.append(f"{where}:{number}: {line.strip()}")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                mentions += 1
            key = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func
                if target.attr == "getenv" or (
                    target.attr == "get"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "environ"
                ):
                    key = node.args[0]
            elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "environ":
                key = node.slice
            if key is None:
                continue
            if isinstance(key, ast.Constant):
                names.append(key.value)
            else:
                found.append(f"{where}:{key.lineno}: computed variable name")
    if tuple(names) != ENV_READS:
        found.append(f"reads {names}, the Knobs table has {list(ENV_READS)}")
    if mentions != len(names):
        found.append("an os.environ use this walk cannot name")
    return found


#: the two seeded constructors: any other call into ``numpy.random`` or
#: the stdlib ``random`` draws from, or reseeds, process-global state
SEEDED = ("numpy.random.default_rng", "random.Random")


def unseeded_rng(root: Path) -> list[str]:
    """Every draw comes from ``comm.rng`` or a generator built from a
    seed: no call in the package resolves to a ``numpy.random`` or stdlib
    ``random`` function but ``default_rng(seed)`` / ``random.Random(seed)``.

    A call is resolved through its module's imports (``import numpy as
    np``, ``from random import shuffle``, ...); a name imported from
    neither (``rng``, ``comm.rng``) is not followed."""
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = _parse(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

        def dotted(expr: ast.expr) -> str:
            if isinstance(expr, ast.Name):
                return bound.get(expr.id, "")
            if isinstance(expr, ast.Attribute):
                base = dotted(expr.value)
                return base and f"{base}.{expr.attr}"
            return ""

        lines = []
        for node in ast.walk(tree):
            name = dotted(node.func) if isinstance(node, ast.Call) else ""
            if name.rpartition(".")[0] in ("numpy.random", "random") and not (
                    name in SEEDED and (node.args or node.keywords)):
                lines.append(node.lineno)
        found += [f"{path.relative_to(root).as_posix()}:{line}" for line in sorted(lines)]
    return found


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Plant:
    """A violation to plant: ``edit`` rewrites the text of ``path``;
    ``expect``, when given, is exactly what the rule must report."""

    id: str
    path: str
    edit: Callable[[str], str]
    expect: tuple[str, ...] | None = None


def appended(id: str, path: str, text: str) -> Plant:
    return Plant(id, path, lambda old: f"{old}\n{text}\n")


def replaced(id: str, path: str, old: str, new: str) -> Plant:
    def edit(text: str) -> str:
        assert old in text, f"{path} no longer has {old!r} to replace"
        return text.replace(old, new, 1)
    return Plant(id, path, edit)


def planted(id: str, path: str, *edits: tuple[str, str], at: str) -> Plant:
    """A plant that applies ``edits`` to ``path`` in turn and expects
    exactly ``path:line`` of the planted text holding ``at``."""
    def edit(text: str) -> str:
        for old, new in edits:
            assert old in text, f"{path} no longer has {old!r} to replace"
            text = text.replace(old, new, 1)
        return text
    text = edit((ROOT / path).read_text())
    line = text[:text.index(at)].count("\n") + 1
    return Plant(id, path, edit, expect=(f"{path}:{line}",))


@dataclass(frozen=True)
class Rule:
    name: str
    #: what the self-test copies: the top directory of each entry
    scope: tuple[str, ...]
    violations: Callable[[Path], list[str]]
    plants: tuple[Plant, ...]


def rule(name: str, scope: tuple[str, ...], violations, *plants: Plant) -> Rule:
    return Rule(name, scope, violations, plants)


#: where a public call starts: the only files that derive the bound
LMAX_ENTRIES = (r"^src/repro/(api\.py|core/isolated\.py"
                r"|graph/validation\.py|metrics/result\.py|baselines/)")
#: the wrappers the sequential V-cycle backend replaced: a function
#: ``coarsen`` (not a ``.coarsen`` method or the ``kaffpa.coarsen`` span)
SEQUENTIAL_OLD_NAMES = (
    word("LocalCoarseningBackend|HierarchyLevel|Hierarchy|multilevel_partition|"
         "project_partition|project_to_finest")
    + r"|core[./](coarsen|coarsening|projection)\b|(?<![\w.])coarsen\("
    + r"|import .*(?<![\w.])coarsen(?![\w.])"
)
#: no looser than ``grep "os.environ" | grep -v REPRO_BENCH_SEEDS``: each
#: is a line that grep flags
ENV_PLANTS = (
    'os.environ["REPRO_BACKEND"]',
    'os.environ.get("REPRO_BACKEND", "spmd")',
    'os.environ.setdefault("REPRO_BACKEND", "spmd")',
    'os.environ["REPRO_BACKEND"] = "spmd"',
    'os.environ.pop("REPRO_BACKEND", None)',
    'os.environ[name]',
    'dict(os.environ)',
    '# spmd unless os.environ says otherwise',
)
SCIPY_PLANTS = ("import scipy.sparse as sp", "from scipy import sparse")
#: the only file that picks a ``multiprocessing`` start method
PROCESS_RUNTIME = "src/repro/dist/runtime.py"

RULES = (
    # one collective protocol: no barrier/slot twin, no second communicator
    rule("collective-protocol", ("src/repro",),
         absent(r"threading\.Barrier|_GuardedList|class ProcComm|ProcWorld|\.slots\b|\.scratch\b",
                "src/repro"),
         appended("a second communicator", "src/repro/dist/comm.py",
                  "class ProcComm:\n    pass"),
         appended("in a C file", "src/repro/native/_scan.c",
                  "/* a threading.Barrier per phase */")),
    # one SCLP entry point: every caller calls run_sclp on a backend
    rule("sclp-entry-point", ("src", "benchmarks", "tools", "examples"),
         absent(word("size_constrained_label_propagation|label_propagation_clustering|"
                     "label_propagation_refinement|parallel_label_propagation"),
                "src", "benchmarks", "tools", "examples"),
         appended("an LP wrapper", "src/repro/engine/sclp.py",
                  "def label_propagation_refinement(*args):\n    return run_sclp(*args)"),
         appended("under benchmarks/e2e", "benchmarks/e2e/workloads.py",
                  "# calls parallel_label_propagation")),
    # one cut implementation: every cut is the compiled quality sweep
    rule("cut.no-arc-mask", ("src", "benchmarks", "tools", "examples", "tests"),
         absent(word("cut_edges_mask"), "src", "benchmarks", "tools", "examples", "tests"),
         appended("an arc mask helper", "tests/conftest.py",
                  "def cut_edges_mask(graph, labels):\n    return labels"),),
    rule("cut.no-masked-sum", ("src/repro",),
         absent(r"\b(adj)?wgt\[[^]]*\]\.sum\(\)", "src/repro"),
         appended("arc weights summed over a mask", "src/repro/metrics/quality.py",
                  "def _planted(graph, mask):\n    return int(graph.adjwgt[mask].sum())")),
    # one METIS parser: the compiled reader tokenizes the body
    rule("metis-parser", (METIS_READER,), metis_reader,
         appended("a token loop", METIS_READER,
                  "def _metis_tokens(text):\n"
                  "    return [line.split() for line in text.splitlines()]"),
         replaced("no parse_metis call", METIS_READER, "native.parse_metis(",
                  "native.parse_metis_py(")),
    # integer-only kernels, declared once
    rule("kernels.no-float", ("src/repro/native",),
         absent(word("double|float"), "src/repro/native/*.c"),
         appended("a double cap", "src/repro/native/_scan.c", "static double planted_cap;")),
    rule("kernels.no-literal-bindings", ("src/repro/native",),
         absent(r"argtypes = \[|_fields_ = \[", "src/repro/native/__init__.py"),
         appended("a hand-written argtypes", "src/repro/native/__init__.py",
                  "_lib.scan_phase.argtypes = [ctypes.c_void_p]")),
    rule("kernels.no-workspace", ("src", "tests"),
         absent("IterationWorkspace", "src", "tests"),
         appended("a workspace pool", "tests/conftest.py",
                  "from repro.engine import IterationWorkspace")),
    # one shard mapper: the header-once reader maps every shard file
    rule("shard-mapper", ("src/repro/graph",),
         absent("mmap_mode", "src/repro/graph/store.py"),
         appended("a per-miss np.load", "src/repro/graph/store.py",
                  "def _planted(path):\n    return np.load(path, mmap_mode=\"r\")")),
    # one quotient build, no transposition
    rule("quotient.fill-defined", ("src/repro/native",),
         present(r"^int64_t quotient_fill\(", "src/repro/native/_coarse.c"),
         replaced("renamed", "src/repro/native/_coarse.c",
                  "\nint64_t quotient_fill(", "\nint64_t quotient_fill_rows(")),
    rule("quotient.arcs-defined", ("src/repro/native",),
         present(r"^def quotient_arcs\(", "src/repro/native/__init__.py"),
         replaced("renamed", "src/repro/native/__init__.py",
                  "\ndef quotient_arcs(", "\ndef quotient_arcs_of(")),
    rule("quotient.fill-no-transpose", ("src/repro/native",),
         absent_between("transpose", "src/repro/native/_coarse.c",
                        r"^int64_t quotient_fill\(", r"^}"),
         replaced("a transposing pass", "src/repro/native/_coarse.c",
                  "int64_t *adjwgt_c)\n{", "int64_t *adjwgt_c)\n{\n    /* transpose first */")),
    rule("quotient.arcs-no-transpose-scratch", ("src/repro/native",),
         absent_between("t_off|t_col|t_wgt", "src/repro/native/__init__.py",
                        r"^def quotient_arcs\(", r"^def group_arcs\("),
         replaced("scratch for a transpose", "src/repro/native/__init__.py",
                  "\ndef group_arcs(", "    t_off = np.zeros(1)\n\n\ndef group_arcs(")),
    # Lmax decided once: no bound derived and no epsilon taken below the entry
    rule("lmax.derived-at-the-entry", ("src/repro",),
         lambda root: [line for line in grep(r"max_block_weight_bound\(", root, "src/repro")
                       if not re.match(LMAX_ENTRIES, line)],
         appended("a bound derived in KaFFPa", "src/repro/kaffpa/driver.py",
                  "def _planted(graph, k):\n    return max_block_weight_bound(graph, k, 0.03)")),
    rule("lmax.no-epsilon-below", ("src/repro",), takes_epsilon,
         appended("a layer that takes epsilon", "src/repro/dist/dgraph.py",
                  "def _planted(graph, *, epsilon=0.03):\n    return epsilon")),
    # one partition result: every partitioner returns through finish_partition
    rule("result.old-types", ("src", "tests", "examples", "tools", "benchmarks"),
         absent("SequentialResult|ParallelResult|BaselineResult",
                "src", "tests", "examples", "tools", "benchmarks/*.py"),
         appended("a second result type", "benchmarks/bench_kernel_throughput.py",
                  "class BaselineResult:\n    pass")),
    rule("result.annotated", ("src/repro",), partitioners_return_the_result,
         replaced("an unannotated partitioner", "src/repro/core/partitioner.py",
                  ") -> PartitionResult:", "):")),
    rule("result.built-in-finish", ("src", "tests", "examples", "tools", "benchmarks"),
         result_built_in_finish,
         appended("a result built in a baseline", "src/repro/baselines/trivial.py",
                  "def _planted(graph, partition):\n    return PartitionResult(partition)")),
    # one iterated V-cycle loop: both pipelines keep the best cycle in the engine
    rule("vcycle.loop-in-the-engine", ("src/repro",), vcycle_loop_lives_in_the_engine,
         appended("a second cycle loop", "src/repro/core/partitioner.py",
                  "def _planted(config):\n    for cycle in range(config.num_vcycles):\n"
                  "        pass")),
    rule("vcycle.loop-once", ("src/repro",), vcycle_loop_once,
         appended("the loop twice", VCYCLE_FILE,
                  "def _planted(config):\n    return list(range(config.num_vcycles))")),
    rule("vcycle.old-names", ("src",),
         absent(r'iterated_vcycles|VcycleTrace|"coarse_sizes"\]', "src"),
         appended("coarse sizes riding the phase times", "src/repro/dist/dist_partitioner.py",
                  'def _planted(times):\n    return times["coarse_sizes"]')),
    # one sequential V-cycle backend, driven by the engine with no wrapper
    rule("sequential.old-names", ("src", "benchmarks", "tools"),
         absent(SEQUENTIAL_OLD_NAMES, "src", "benchmarks", "tools"),
         appended("a bench that coarsens by the old entry point",
                  "benchmarks/bench_ablation_size_constraint.py",
                  "from repro.core import coarsen, fast_config"),
         appended("a projection helper", "src/repro/core/multilevel.py",
                  "def project_partition(partition, mapping):\n"
                  "    return partition[mapping]"),
         appended("the old level type", "tools/quotient_bench.py",
                  "from repro.core.coarsening import HierarchyLevel")),
    # ranks and the API import no scipy
    rule("scipy.module-level", ("src/repro",), module_level_scipy_imports,
         *(Plant(planted, "src/repro/graph/ops.py",
                 # the same line inside a function is what the package does
                 lambda text, planted=planted: (
                     f"{planted}\n{text}\n\ndef _planted():\n    {planted}\n"),
                 expect=("src/repro/graph/ops.py:1",))
           for planted in SCIPY_PLANTS)),
    # one process context: every process rank forks from the runtime's server
    rule("process.one-context", ("src", "benchmarks", "tools", "tests"),
         lambda root: [line for line in grep(r"get_context\(|set_start_method", root,
                                             "src", "benchmarks/*.py", "tools", "tests")
                       if not line.startswith(f"{PROCESS_RUNTIME}:")],
         appended("a spawn context in a test", "tests/dist/test_one_protocol.py",
                  'SPAWN = multiprocessing.get_context("spawn")'),
         appended("a start method in a bench", "benchmarks/bench_kernel_throughput.py",
                  'multiprocessing.set_start_method("spawn")')),
    # one link per rank: no feeder-thread queue carries a collective or a result
    rule("process.no-queue", ("src/repro",),
         absent(r"(?<!\w)Queue\(|cancel_join_thread|_CRASH_GRACE", "src/repro/dist"),
         appended("a queue transport", "src/repro/dist/comm.py", "_up = ctx.Queue()"),
         appended("a flushed-queue exit", "src/repro/dist/runtime.py",
                  "def _planted(q):\n    q.cancel_join_thread()")),
    # randomness comes from comm.rng or a seeded generator
    rule("rng.seeded", ("src/repro",), unseeded_rng,
         planted("a global tie seed in the refinement hook",
                 "src/repro/dist/dist_partitioner.py",
                 ('ordering="random",\n'
                  "            chunk=self.config.lp_chunk_size,\n"
                  "            tie_seed=int(self.comm.rng.integers(0, 2**63 - 1)),",
                  'ordering="random",\n'
                  "            chunk=self.config.lp_chunk_size,\n"
                  "            tie_seed=int(np.random.randint(0, 2**31 - 1)),"),
                 at="np.random.randint"),
         planted("global rumor targets", "src/repro/evolutionary/exchange.py",
                 ("from ..dist.comm import SimComm\n",
                  "import numpy as np\n\nfrom ..dist.comm import SimComm\n"),
                 ("targets = comm.rng.choice(", "targets = np.random.choice("),
                 at="np.random.choice"),
         planted("an unseeded generator", "src/repro/core/partitioner.py",
                 ("np.random.default_rng(seed)", "np.random.default_rng()"),
                 at="np.random.default_rng()")),
    # the static linter and its verb are gone, with every caller
    rule("analysis.gone", ("src", "benchmarks", "tools", "examples", ".github"),
         absent(r"repro\.analysis|from \.+analysis import|\brepro lint\b",
                "src", "benchmarks", "tools", "examples", ".github"),
         appended("a lint step in CI", ".github/workflows/ci.yml",
                  "      - run: PYTHONPATH=src python -m repro lint src/repro"),
         appended("a linter import in a tool", "tools/collective_latency.py",
                  "from repro.analysis import lint_paths")),
    # src/repro reads no environment variable but the tabled ones
    rule("environment-reads", ("src/repro",), environment_reads,
         *(appended(planted, "src/repro/engine/backend.py",
                    f'\ndef _planted(name="REPRO_BACKEND"):\n    import os\n    {planted}')
           for planted in ENV_PLANTS)),
)


@pytest.mark.parametrize("rule", [pytest.param(r, id=r.name) for r in RULES])
def test_rule_holds(rule):
    assert rule.violations(ROOT) == []


@pytest.mark.parametrize("rule, plant", [
    pytest.param(r, p, id=f"{r.name}: {p.id}") for r in RULES for p in r.plants
])
def test_rule_fires_on_plant(rule, plant, tmp_path):
    for top in sorted({entry.split("/")[0] for entry in rule.scope}):
        shutil.copytree(ROOT / top, tmp_path / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / plant.path
    target.write_text(plant.edit(target.read_text()))
    found = rule.violations(tmp_path)
    if plant.expect is None:
        assert found, f"{rule.name} missed {plant.id!r}"
    else:
        assert tuple(found) == plant.expect


def test_rng_seeded_reads_each_import_shape(tmp_path):
    """The global and unseeded shapes fire, whatever they were imported
    as; a seeded generator and a draw from one pass."""
    lines = [
        "import random",
        "import numpy as np",
        "from numpy import random as npr",
        "from numpy.random import default_rng",
        "from random import shuffle",
        "np.random.rand(4)  # fires",
        "npr.choice(4)  # fires",
        "random.randint(0, 4)  # fires",
        "shuffle(items)  # fires",
        "np.random.default_rng()  # fires",
        "default_rng()  # fires",
        "random.Random()  # fires",
        "rng = np.random.default_rng(seed)",
        "tie = random.Random(int(rng.integers(0, 2**31)))",
        "default_rng(seed=seed)",
        "rng.choice(4), rng.permutation(4)",
        "comm.rng.integers(0, 4)",
    ]
    module = tmp_path / "src" / "repro" / "shapes.py"
    module.parent.mkdir(parents=True)
    module.write_text("\n".join(lines))
    assert unseeded_rng(tmp_path) == [
        f"src/repro/shapes.py:{number}"
        for number, line in enumerate(lines, 1) if line.endswith("# fires")]


def test_the_benchmark_scope_is_the_top_level_only():
    """``benchmarks/*.py`` holds the benches, not the frozen end-to-end
    harness under ``benchmarks/e2e/``."""
    scoped = {path.relative_to(ROOT).as_posix() for path in files(ROOT, "benchmarks/*.py")}
    assert "benchmarks/bench_kernel_throughput.py" in scoped
    assert not [path for path in scoped if path.startswith("benchmarks/e2e/")]


def test_the_rule_module_and_bytecode_are_left_out(tmp_path):
    (tmp_path / "tests" / "__pycache__").mkdir(parents=True)
    (tmp_path / SELF).write_text("IterationWorkspace\n")
    (tmp_path / "tests" / "__pycache__" / "x.pyc").write_text("IterationWorkspace\n")
    (tmp_path / "tests" / "test_x.py").write_text("IterationWorkspace\n")
    assert grep("IterationWorkspace", tmp_path, "tests") == [
        "tests/test_x.py:1: IterationWorkspace"]
