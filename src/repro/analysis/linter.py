"""File walking, rule execution, reporting.

:func:`lint_paths` is the programmatic API (used by the self-lint and
mutation tests); :func:`run_lint` adds the text report and the exit code
of ``python -m repro lint [paths]``.

Linting is *whole-program*: every file named on the command line is
parsed into one :class:`~repro.analysis.project.Project`, the
interprocedural collective footprints are computed once, and each module
is then checked with its :class:`~repro.analysis.footprints.ModuleContext`
so SPMD-DIV sees through helper calls.  The single-file entry points
(:func:`lint_file`, :func:`lint_source`) build a one-module project,
which still gives intra-module interprocedural resolution.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .findings import Finding
from .footprints import FootprintAnalysis, ModuleContext
from .project import Project
from .rules import check_module

__all__ = [
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_project",
    "run_lint",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def lint_project(project: Project) -> list[Finding]:
    """Run the rule set over an already-built project; sorted by location."""
    analysis = FootprintAnalysis(project)
    findings = [
        Finding(path, exc.lineno or 1, (exc.offset or 0) + 1, "PARSE",
                f"syntax error: {exc.msg}")
        for path, exc in project.unparsed
    ]
    for path, module in project.modules_by_path.items():
        findings.extend(
            check_module(module.tree, path, ModuleContext(analysis, module))
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string (single-module project context)."""
    project = Project()
    project.add_source(Path(path).stem or "<string>", path, source)
    return lint_project(project)


def lint_file(path: str | Path) -> list[Finding]:
    return lint_source(Path(path).read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Sequence[str | Path]) -> list[Finding]:
    """Lint every Python file under ``paths`` as one project."""
    return lint_project(Project.from_paths(iter_python_files(paths)))


def run_lint(paths: Sequence[str | Path], stream: TextIO | None = None) -> int:
    """Lint, print a report, and return the process exit code.

    0 when clean, 1 on any finding, 2 when a path cannot be read.
    """
    out = stream if stream is not None else sys.stdout
    try:
        findings = lint_paths(paths)
    except OSError as exc:
        print(f"repro lint: {exc}", file=out)
        return 2
    for finding in findings:
        print(finding.format(), file=out)
    print(f"{len(findings)} finding(s)" if findings else "clean: no findings",
          file=out)
    return 1 if findings else 0
