"""Static analysis for the simulated SPMD runtime.

Each hazard of an SPMD program has one primary catcher; this package is
the catcher for the two that something static reports *first* or is the
*only* one to name a line for (``docs/analysis.md`` has the mutation
table that decides it, ``tests/analysis/test_mutations.py`` re-runs it):

* **SPMD-DIV** — a collective, or a call whose transitive footprint
  holds one, under rank-dependent control flow; a rank-guarded early
  return with collectives still to come.  Whole-program: modules are
  loaded into a :class:`~repro.analysis.project.Project` and a
  may-closure over its call graph gives every function's collective
  footprint (:mod:`~repro.analysis.footprints`).
* **RNG-GLOBAL** — process-global random state instead of ``comm.rng``.

At run time the collective-order check inside
:class:`~repro.dist.comm.SimComm` (always on) names the collective where
the streams part, the launchers' watchdog names a rank that never
arrives, and the CSR buffers of ``Graph`` and ``DistGraph`` are
read-only, so an in-place write raises at the faulting line.

Run it with ``python -m repro lint [paths]``.
"""

from .findings import RULES, Finding
from .footprints import FootprintAnalysis
from .linter import lint_file, lint_paths, lint_source, run_lint
from .project import Project

__all__ = [
    "Finding",
    "FootprintAnalysis",
    "Project",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_lint",
]
