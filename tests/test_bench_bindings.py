"""Every name the frozen ``benchmarks/e2e`` binds of the program exists.

BENCHMARK.json freezes that directory, so a simplification that renames
or drops something it imports, wraps or reads would fail in the bench,
after review.  Here it fails tier-1 instead.  No subprocess: ``spans.py``
and ``workloads.py`` import nothing but the stdlib at module level and
are loaded by path; the ``repro`` names of all four files are read off
their syntax trees.  So are those of the benches, tools and examples,
which tier-1 never runs either.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from typing import Iterator

import pytest

from repro.api import partition_graph
from repro.core.config import fast_config
from repro.dist.dist_partitioner import parhip_program
from repro.dist.runtime import run_spmd_processes

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
SOURCES = ("child.py", "run.py", "spans.py", "workloads.py")
#: the scripts outside ``src`` and ``tests``, top level of each directory
SCRIPTS = ("benchmarks/*.py", "tools/*.py", "examples/*.py")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def trees():
    return {name: ast.parse((E2E / name).read_text()) for name in SOURCES}


def test_every_wrapped_method_is_public_and_exists(spans):
    for mod_name, cls_name, method, _span, _counts in spans.METHODS:
        module = importlib.import_module(mod_name)
        assert cls_name in module.__all__, (mod_name, cls_name)
        # on the class itself: the wrapper replaces the class's own attribute
        assert method in vars(getattr(module, cls_name)), (cls_name, method)
        assert callable(getattr(getattr(module, cls_name), method)), (cls_name, method)


def test_every_wrapped_function_is_public_and_exists(spans):
    for mod_name, func_name, _span in spans.FUNCTIONS:
        module = importlib.import_module(mod_name)
        assert func_name in module.__all__, (mod_name, func_name)
        assert callable(getattr(module, func_name))


def repro_imports(tree: ast.AST) -> Iterator[tuple[str, str | None]]:
    """``(module, name)`` of every ``repro`` import in ``tree``, inside
    functions too; ``name`` is None for ``import repro.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    yield alias.name, None


def unresolved(tree: ast.AST) -> list[str]:
    """The ``repro`` imports of ``tree`` that would fail."""
    missing = []
    for module_name, name in repro_imports(tree):
        try:
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):  # a submodule, then
                importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(module_name if name is None else f"{module_name}.{name}")
    return missing


def test_every_repro_import_resolves(trees):
    scripts = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
               for pattern in SCRIPTS for path in sorted(ROOT.glob(pattern))}
    assert "tools/capture_golden_partitions.py" in scripts
    for name, tree in {**trees, **scripts}.items():
        assert unresolved(tree) == [], name
    # the three names kept alive for the measure child alone
    seen = {name for tree in trees.values() for _module, name in repro_imports(tree)}
    assert {"SCAN_ENGINE", "resolve_chunk_size", "resolve_engine"} <= seen


def test_an_import_of_a_deleted_name_fails_the_check():
    # an import inside a function counts too
    tree = ast.parse("def run():\n    from repro.core import coarsen, fast_config\n")
    assert unresolved(tree) == ["repro.core.coarsen"]


def test_every_config_attribute_read_exists(trees):
    config = fast_config(k=8)
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "config")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "config")
        )
    }
    assert {"sanitize", "spmd_timeout", "k",
            "coarsening_iterations", "refinement_iterations"} <= reads
    for attr in reads:
        assert hasattr(config, attr), attr


def test_process_launcher_takes_the_keywords_child_passes():
    parameters = inspect.signature(run_spmd_processes).parameters
    for keyword in ("graph", "seed", "sanitize", "timeout"):
        assert parameters[keyword].kind is inspect.Parameter.KEYWORD_ONLY, keyword
    assert list(inspect.signature(parhip_program).parameters)[:4] == [
        "comm", "graph", "config", "seed",
    ]


def test_partition_graph_takes_every_workload_call():
    parameters = inspect.signature(partition_graph).parameters
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        call = workloads.op_spec(workload, "unused", 0)["call"]  # adds epsilon
        assert set(call) | {"seed"} <= set(parameters), workload.name
