"""Tests for the SPMD lint pass (repro.analysis).

The fixture corpus under ``fixtures/`` carries its own oracle: every
line that must be flagged ends in a marker comment (``# DIV:``,
``# RNG:``, ``# WORK-MISS:``), so the expected finding set is
read straight from the file and cannot drift from the code.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis import RULES, Severity, lint_file, lint_paths, lint_source, run_lint
from repro.analysis.__main__ import main as analysis_main
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

_MARKERS = {
    "# WORK-MISS": "WORK-MISS",
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
    @pytest.mark.parametrize("name", ["div_bad.py", "rng_bad.py", "work_miss.py"])
    def test_bad_fixtures_flag_exactly_the_marked_lines(self, name):
        path = FIXTURES / name
        expected = expected_findings(path)
        assert expected, f"fixture {name} has no expected-finding markers"
        assert actual_findings(path) == expected

    @pytest.mark.parametrize("name", ["div_ok.py", "rng_ok.py"])
    def test_good_fixtures_are_clean(self, name):
        assert actual_findings(FIXTURES / name) == set()

    def test_work_miss_is_advisory(self):
        findings = lint_file(FIXTURES / "work_miss.py")
        assert findings
        assert all(f.severity is Severity.ADVICE for f in findings)

    def test_error_rules_are_errors(self):
        for name in ("div_bad.py", "rng_bad.py"):
            for finding in lint_file(FIXTURES / name):
                assert finding.severity is Severity.ERROR


class TestNoqa:
    def test_suppressions(self):
        findings = lint_file(FIXTURES / "noqa_cases.py")
        # Only the wrong-code case survives; everything else is noqa'd.
        assert [(f.line, f.code) for f in findings] == [(25, "SPMD-DIV")]

    def test_bare_noqa_suppresses_everything(self):
        source = "import random\nx = random.random()  # repro: noqa\n"
        assert lint_source(source) == []

    def test_code_list_is_case_insensitive(self):
        source = "import random\nx = random.random()  # repro: noqa[rng-global]\n"
        assert lint_source(source) == []

    def test_noqa_inside_a_string_literal_is_data_not_suppression(self):
        source = (
            "import random\n"
            "x = random.choice(['# repro: noqa'])  # a comment, not a noqa\n"
        )
        findings = lint_source(source)
        assert [(f.line, f.code) for f in findings] == [(2, "RNG-GLOBAL")]

    def test_noqa_on_closing_line_of_multiline_statement(self):
        # The finding is reported at the statement's first line; the
        # suppression sits on its last.  Statement line spans bridge them.
        source = (
            "import random\n"
            "x = random.randint(\n"
            "    1,\n"
            "    2,\n"
            ")  # repro: noqa[RNG-GLOBAL] the test rig seeds the module RNG\n"
        )
        assert lint_source(source) == []

    def test_noqa_on_compound_header_does_not_blanket_the_body(self):
        source = (
            "import random\n"
            "def f():  # repro: noqa\n"
            "    return random.random()\n"
        )
        findings = lint_source(source)
        assert [(f.line, f.code) for f in findings] == [(3, "RNG-GLOBAL")]

    def test_justification_text_is_preserved(self):
        from repro.analysis.noqa import parse_suppressions

        sup = parse_suppressions(
            "x = 1  # repro: noqa[SPMD-DIV] replay guard, rank 0 only\n"
        )
        assert len(sup.entries) == 1
        assert sup.entries[0].codes == frozenset({"SPMD-DIV"})
        assert sup.entries[0].justification == "replay guard, rank 0 only"


class TestStrictNoqa:
    def test_unused_suppression_is_an_advisory_finding(self):
        source = "def f(x):\n    return x  # repro: noqa[SPMD-DIV] stale\n"
        findings = lint_source(source, strict_noqa=True)
        assert [(f.code, f.severity) for f in findings] == \
            [("NOQA-UNUSED", Severity.ADVICE)]
        assert "SPMD-DIV" in findings[0].message

    def test_used_suppression_is_not_reported(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: noqa[RNG-GLOBAL] rig seeds it\n"
        )
        assert lint_source(source, strict_noqa=True) == []

    def test_strict_noqa_never_fails_the_run(self, capsys):
        path = FIXTURES / "noqa_cases.py"
        # noqa_cases.py keeps one live finding (wrong-code case) plus its
        # suppressions; strict mode may only add advisories on top.
        code = analysis_main(["lint", "--strict-noqa",
                              "--select", "NOQA-UNUSED", str(path)])
        assert code == 0


class TestOutputFormats:
    def test_json_document(self, capsys):
        code = analysis_main(["lint", "--format", "json",
                              str(FIXTURES / "rng_bad.py")])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] >= 1 and doc["advice"] == 0
        for finding in doc["findings"]:
            assert set(finding) == {"path", "line", "col", "code",
                                    "severity", "message"}
            assert finding["code"] == "RNG-GLOBAL"

    def test_sarif_document_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        code = analysis_main(["lint", "--format", "sarif",
                              "--output", str(out),
                              str(FIXTURES / "rng_bad.py")])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SPMD-DIV", "COLL-ORDER", "MUT-BUF", "DTYPE-NARROW",
                "TRACE-MISMATCH", "NOQA-UNUSED"} <= rule_ids
        assert run["results"]
        for result in run["results"]:
            assert result["ruleId"] == "RNG-GLOBAL"
            assert result["level"] == "error"
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
        # With --output the human-readable report still goes to stdout.
        assert "RNG-GLOBAL" in capsys.readouterr().out

    def test_advisories_map_to_sarif_note_level(self, capsys):
        code = analysis_main(["lint", "--format", "sarif",
                              str(FIXTURES / "work_miss.py")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"note"}

    def test_clean_json_run_reports_zero_counts(self, capsys):
        code = analysis_main(["lint", "--format", "json",
                              str(FIXTURES / "div_ok.py")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"findings": [], "errors": 0, "advice": 0}


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.code for f in findings] == ["PARSE"]
        assert findings[0].severity is Severity.ERROR

    def test_lint_paths_walks_directories(self):
        findings = lint_paths([FIXTURES])
        files = {Path(f.path).name for f in findings}
        assert {"div_bad.py", "rng_bad.py", "work_miss.py"} <= files
        assert "div_ok.py" not in files

    def test_select_filters_codes(self):
        findings = lint_paths([FIXTURES], select=["RNG-GLOBAL"])
        assert findings and all(f.code == "RNG-GLOBAL" for f in findings)

    def test_missing_path_is_exit_2(self):
        stream = io.StringIO()
        assert run_lint(["does/not/exist.py"], stream=stream) == 2

    def test_unknown_select_code_is_exit_2_not_silently_clean(self):
        stream = io.StringIO()
        assert run_lint([FIXTURES], select=["TYPO-CODE"], stream=stream) == 2
        assert "unknown rule code" in stream.getvalue()
        with pytest.raises(ValueError, match="TYPO-CODE"):
            lint_paths([FIXTURES], select=["TYPO-CODE"])

    def test_every_finding_code_is_registered(self):
        for finding in lint_paths([FIXTURES]):
            assert finding.code in RULES


class TestCli:
    def test_module_cli_fails_on_corpus_with_locations(self, capsys):
        code = analysis_main(["lint", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "SPMD-DIV" in out and "RNG-GLOBAL" in out and "MUT-BUF" in out
        assert "div_bad.py:9:" in out  # file:line:col locations
        assert "error(s)" in out

    def test_module_cli_clean_file_exits_zero(self, capsys):
        code = analysis_main(["lint", str(FIXTURES / "div_ok.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_advisory_findings_do_not_fail_the_run(self, capsys):
        code = analysis_main(["lint", str(FIXTURES / "work_miss.py")])
        assert code == 0
        assert "WORK-MISS" in capsys.readouterr().out

    def test_no_advice_hides_advisories(self, capsys):
        code = analysis_main(["lint", "--no-advice", str(FIXTURES / "work_miss.py")])
        assert code == 0
        assert "WORK-MISS" not in capsys.readouterr().out

    def test_fixit_hints(self, capsys):
        analysis_main(["lint", "--fixit", str(FIXTURES / "rng_bad.py")])
        assert "fix:" in capsys.readouterr().out

    def test_rules_listing(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SPMD-DIV", "RNG-GLOBAL", "MUT-BUF", "WORK-MISS"):
            assert code in out

    def test_repro_cli_lint_subcommand(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "rng_bad.py")]) == 1
        assert "RNG-GLOBAL" in capsys.readouterr().out
        assert cli_main(["lint", str(FIXTURES / "rng_ok.py")]) == 0
