"""CI gate: the repo's own source tree must lint clean.

Runs the SPMD linter over ``src/`` and asserts zero non-advisory
findings, so a divergent collective or a global-RNG call can never land
unnoticed.  Advisory findings (WORK-MISS) are reported but tolerated —
except under ``src/repro/engine/``, which is held to zero findings of
any severity: the shared drivers run on both substrates, so an engine
edge loop that skips ``backend.work()`` silently corrupts every
simulated-time number downstream (WORK-MISS treats a ``backend``
parameter as comm-like precisely for this tree).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Severity, lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"
ENGINE = SRC / "repro" / "engine"


def test_source_tree_has_no_lint_errors():
    assert SRC.is_dir(), f"src/ not found at {SRC}"
    errors = [f for f in lint_paths([SRC]) if f.severity is Severity.ERROR]
    detail = "\n".join(f.format() for f in errors)
    assert not errors, f"repro.analysis found lint errors in src/:\n{detail}"


def test_engine_tree_is_clean_including_advisories():
    assert ENGINE.is_dir(), f"engine package not found at {ENGINE}"
    findings = lint_paths([ENGINE])
    detail = "\n".join(f.format() for f in findings)
    assert not findings, (
        "repro.analysis found findings (advisories included) in the "
        f"shared engine tree:\n{detail}"
    )


def test_no_unused_suppressions_in_src():
    stale = [f for f in lint_paths([SRC], strict_noqa=True)
             if f.code == "NOQA-UNUSED"]
    detail = "\n".join(f.format() for f in stale)
    assert not stale, f"stale `# repro: noqa` comments in src/:\n{detail}"


def test_every_suppression_in_src_carries_a_justification():
    from repro.analysis import iter_python_files
    from repro.analysis.noqa import parse_suppressions

    bare = []
    for file in iter_python_files([SRC]):
        sup = parse_suppressions(file.read_text(encoding="utf-8"))
        for entry in sup.entries:
            if not entry.justification:
                bare.append(f"{file}:{entry.line}")
    assert not bare, (
        "every `# repro: noqa` in src/ must say *why* the rule does not "
        "apply; bare suppressions at:\n" + "\n".join(bare)
    )
