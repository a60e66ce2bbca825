"""Tests for the SPMD lint pass (repro.analysis).

The fixture corpus under ``fixtures/`` carries its own oracle: every
line that must be flagged ends in a marker comment (``# DIV:``,
``# RNG:``), so the expected finding set is read straight from the file
and cannot drift from the code.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_file, lint_paths, lint_source, run_lint
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

_MARKERS = {
    "# DIV": "SPMD-DIV",
    "# RNG": "RNG-GLOBAL",
}


def expected_findings(path: Path) -> set[tuple[int, str]]:
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for marker, code in _MARKERS.items():
            if marker in line:
                expected.add((lineno, code))
                break
    return expected


def actual_findings(path: Path) -> set[tuple[int, str]]:
    return {(f.line, f.code) for f in lint_file(path)}


class TestRuleCorpus:
    @pytest.mark.parametrize("name", ["div_bad.py", "rng_bad.py"])
    def test_bad_fixtures_flag_exactly_the_marked_lines(self, name):
        path = FIXTURES / name
        expected = expected_findings(path)
        assert expected, f"fixture {name} has no expected-finding markers"
        assert actual_findings(path) == expected

    @pytest.mark.parametrize("name", ["div_ok.py", "rng_ok.py"])
    def test_good_fixtures_are_clean(self, name):
        assert actual_findings(FIXTURES / name) == set()


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.code for f in findings] == ["PARSE"]

    def test_lint_paths_walks_directories(self):
        findings = lint_paths([FIXTURES])
        files = {Path(f.path).name for f in findings}
        assert {"div_bad.py", "rng_bad.py", "driver_bad.py"} <= files
        assert "div_ok.py" not in files

    def test_missing_path_is_exit_2(self):
        stream = io.StringIO()
        assert run_lint(["does/not/exist.py"], stream=stream) == 2
        assert "does/not/exist.py" in stream.getvalue()

    def test_every_finding_code_is_registered(self):
        for finding in lint_paths([FIXTURES]):
            assert finding.code in RULES


class TestCli:
    def test_module_cli_fails_on_corpus_with_locations(self, capsys):
        code = cli_main(["lint", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "SPMD-DIV" in out and "RNG-GLOBAL" in out
        assert "div_bad.py:9:" in out  # file:line:col locations
        assert "finding(s)" in out

    def test_module_cli_clean_file_exits_zero(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "div_ok.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_cli_lint_subcommand(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "rng_bad.py")]) == 1
        assert "RNG-GLOBAL" in capsys.readouterr().out
        assert cli_main(["lint", str(FIXTURES / "rng_ok.py")]) == 0

    def test_lint_takes_paths_and_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "--select", "RNG-GLOBAL", str(FIXTURES)])
        assert exc.value.code == 2
