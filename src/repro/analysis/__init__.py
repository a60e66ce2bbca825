"""Static analysis for the simulated SPMD runtime.

Three coordinated layers keep the repository's distributed algorithms
honest about the contract of :mod:`repro.dist.comm`:

* this package — a *whole-program* AST lint pass
  (``python -m repro.analysis lint src/`` or ``python -m repro lint``).
  Modules are loaded into a :class:`~repro.analysis.project.Project`, a
  call graph with conservative dynamic dispatch is condensed into SCCs
  (:mod:`~repro.analysis.callgraph`), and per-function *collective
  footprints* (may/must sets, :mod:`~repro.analysis.footprints`) feed
  the rules: **SPMD-DIV** (rank-guarded collectives / early returns —
  now interprocedural, across files), **COLL-ORDER** (branch arms with
  unequal guaranteed collective sequences), **RNG-GLOBAL**
  (process-global random state instead of ``comm.rng``), **MUT-BUF**
  (in-place mutation of CSR buffers received through
  Graph/DistGraph/backend parameters), **DTYPE-NARROW** (int32 casts of
  label/global-id arrays), **WORK-MISS** (advisory: unaccounted
  edge-traversal loops);
* the static ↔ runtime bridge — ``repro lint --verify-trace
  out.events.jsonl`` (:mod:`~repro.analysis.tracecheck`) replays an
  :mod:`repro.obsv` trace against the static footprints and flags every
  collective the static model failed to predict;
* the runtime collective-order sanitizer inside
  :class:`~repro.dist.comm.SimComm` (``sanitize=True`` or
  ``REPRO_SANITIZE=1``) plus the deadlock watchdog of
  :func:`~repro.dist.runtime.run_spmd` /
  :func:`~repro.dist.runtime.run_spmd_processes`, which catch at run
  time what the static pass cannot prove.

See ``docs/analysis.md`` for the rule catalogue with examples.
"""

from .callgraph import CallGraph, build_call_graph
from .findings import RULES, Finding, Rule, Severity
from .footprints import Footprint, FootprintAnalysis, ModuleContext
from .linter import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
    render_json,
    render_sarif,
    run_lint,
)
from .project import Project
from .tracecheck import verify_trace_file

__all__ = [
    "CallGraph",
    "Finding",
    "Footprint",
    "FootprintAnalysis",
    "ModuleContext",
    "Project",
    "RULES",
    "Rule",
    "Severity",
    "build_call_graph",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "render_json",
    "render_sarif",
    "run_lint",
    "verify_trace_file",
]
