"""Finding and rule metadata for the SPMD linter.

A *rule* is a static property every SPMD program in this repository must
uphold (see ``docs/analysis.md``); a *finding* is one concrete violation
at a source location.  Rules carry a severity: ``error`` findings fail
the lint run (and the self-lint test in CI), ``advice`` findings are
reported but never affect the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Severity", "Rule", "Finding", "RULES"]


class Severity(str, Enum):
    ERROR = "error"
    ADVICE = "advice"


@dataclass(frozen=True)
class Rule:
    """One lint rule: a code, what it catches, and how to fix it."""

    code: str
    severity: Severity
    summary: str
    fixit: str


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            code="SPMD-DIV",
            severity=Severity.ERROR,
            summary=(
                "collective called inside a rank-dependent branch, or an "
                "early return skips collectives on some ranks"
            ),
            fixit=(
                "hoist the collective out of the branch so every rank calls "
                "it in the same order; make the *payload* rank-dependent "
                "instead (e.g. `comm.bcast(x if comm.rank == root else None)`)"
            ),
        ),
        Rule(
            code="RNG-GLOBAL",
            severity=Severity.ERROR,
            summary=(
                "module-level random state (np.random.* / random.*) used "
                "instead of comm.rng or an explicitly seeded generator"
            ),
            fixit=(
                "draw from `comm.rng` in SPMD code, or construct "
                "`np.random.default_rng(seed)` / `random.Random(seed)` with "
                "an explicit seed"
            ),
        ),
        Rule(
            code="WORK-MISS",
            severity=Severity.ADVICE,
            summary=(
                "edge-traversal loop in SPMD code with no comm.work() "
                "accounting (skews the simulated-time scaling figures)"
            ),
            fixit=(
                "count the arcs the loop scans and charge them with "
                "`comm.work(arcs_scanned)` once per phase"
            ),
        ),
        Rule(
            code="COLL-ORDER",
            severity=Severity.ERROR,
            summary=(
                "branch arms execute different guaranteed collective "
                "sequences (must-footprints differ); a cross-rank "
                "divergence of the condition misaligns the lock-step "
                "protocol instead of deadlocking it"
            ),
            fixit=(
                "make both arms execute the same collective sequence, or "
                "hoist the collectives out of the branch and vary only the "
                "payload"
            ),
        ),
        Rule(
            code="MUT-BUF",
            severity=Severity.ERROR,
            summary=(
                "in-place mutation of a CSR buffer (xadj/adjncy/adjwgt/"
                "vwgt/degrees) received through a Graph/DistGraph/backend "
                "parameter; shared buffers must stay read-only"
            ),
            fixit=(
                "copy before writing (`arr = graph.adjwgt.copy()`); the "
                "buffers are shared across ranks and will live in "
                "multiprocessing.shared_memory under the ProcessBackend"
            ),
        ),
        Rule(
            code="DTYPE-NARROW",
            severity=Severity.ERROR,
            summary=(
                "label/global-id array cast to a 32-bit integer dtype; "
                "graphs at the paper's target scale (>= 2^31 nodes) "
                "overflow int32 ids"
            ),
            fixit=(
                "keep cluster labels and global node ids int64; narrow "
                "only provably bounded quantities (e.g. interface "
                "positions), with a noqa stating the bound"
            ),
        ),
        Rule(
            code="NOQA-UNUSED",
            severity=Severity.ADVICE,
            summary=(
                "a `# repro: noqa` suppression matches no finding "
                "(reported under --strict-noqa)"
            ),
            fixit=(
                "delete the stale suppression so the noqa inventory "
                "reflects real, justified exceptions"
            ),
        ),
        Rule(
            code="TRACE-MISMATCH",
            severity=Severity.ERROR,
            summary=(
                "a collective observed in a runtime trace is missing from "
                "the static collective footprint of the enclosing span's "
                "function (or is not a known collective at all)"
            ),
            fixit=(
                "the static model is wrong: add the op to "
                "repro.analysis.rules.COLLECTIVES, or fix the call-graph/"
                "footprint gap that hides the call chain"
            ),
        ),
        Rule(
            code="PARSE",
            severity=Severity.ERROR,
            summary="file could not be parsed",
            fixit="fix the syntax error",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    def format(self, show_fixit: bool = False) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if show_fixit:
            text += f"\n    fix: {self.rule.fixit}"
        return text
