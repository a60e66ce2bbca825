"""Finding and rule metadata for the SPMD linter.

A *rule* is a static property every SPMD program in this repository must
uphold (see ``docs/analysis.md``); a *finding* is one concrete violation
at a source location.  Every finding fails the lint run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES"]

#: rule code -> what it catches.  A rule is kept only while the mutation
#: table (tests/analysis/test_mutations.py) shows that nothing else
#: reports its hazard first or names the line.
RULES: dict[str, str] = {
    "SPMD-DIV": (
        "collective called inside a rank-dependent branch, or an early "
        "return skips collectives on some ranks"
    ),
    "RNG-GLOBAL": (
        "module-level random state (np.random.* / random.*) used instead "
        "of comm.rng or an explicitly seeded generator"
    ),
    "PARSE": "file could not be parsed",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
