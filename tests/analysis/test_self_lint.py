"""CI gate: the repo's own source tree must lint clean.

Runs the SPMD linter over ``src/`` and asserts zero findings, so a
rank-guarded collective or a global-RNG call can never land unnoticed.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


def test_source_tree_has_no_lint_errors():
    assert SRC.is_dir(), f"src/ not found at {SRC}"
    findings = lint_paths([SRC])
    detail = "\n".join(f.format() for f in findings)
    assert not findings, f"repro.analysis found lint errors in src/:\n{detail}"
