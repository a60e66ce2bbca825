"""Tests for the whole-program layer: Project, the may-footprints over
its call graph, and the interprocedural side of SPMD-DIV (helpers across
files, dispatch by name, rank-valued properties).

Like ``test_linter.py``, the fixture corpus carries its own oracle:
``# DIV`` marker comments name every line that must be flagged; the
clean twins must stay at zero findings even when linted together with
their bad siblings (the whole ``fixtures/`` tree is one project, so this
also guards against cross-fixture pollution through conservative
dispatch-by-name).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import FootprintAnalysis, Project, lint_file, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def expected_findings(path: Path) -> set[tuple[int, str]]:
    return {
        (lineno, "SPMD-DIV")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "# DIV" in line
    }


class TestCrossFileDivergence:
    def test_bad_package_flags_exactly_the_marked_lines(self):
        package = FIXTURES / "interproc"
        expected = {
            (Path(file).name, line, code)
            for file in sorted(package.glob("*.py"))
            for line, code in expected_findings(file)
        }
        assert expected, "interproc package has no expected-finding markers"
        actual = {
            (Path(f.path).name, f.line, f.code)
            for f in lint_paths([package])
        }
        assert actual == expected

    def test_clean_twin_package_has_zero_findings(self):
        assert lint_paths([FIXTURES / "interproc_ok"]) == []

    def test_twins_stay_clean_inside_the_full_corpus_project(self):
        clean = {"div_ok.py", "rng_ok.py", "driver_ok.py"}
        dirty = {Path(f.path).name for f in lint_paths([FIXTURES])}
        assert not clean & dirty

    def test_helpers_alone_are_clean(self):
        # The collectives live in the helpers; the *divergence* lives in
        # the driver.  Linting the helper module by itself must be quiet.
        assert lint_file(FIXTURES / "interproc" / "helpers.py") == []


def _analysis(sources: dict[str, str]) -> FootprintAnalysis:
    return FootprintAnalysis(Project.from_sources(sources))


class TestFootprints:
    def test_loop_body_is_may_only(self):
        assert _analysis({"m": (
            "def f(comm, xs):\n"
            "    for x in xs:\n"
            "        comm.allgather(x)\n"
        )}).footprint("m.f") == frozenset({"allgather"})

    def test_cross_module_import_resolution(self):
        analysis = _analysis({
            "pkg.util": "def sync(comm):\n    comm.alltoall([])\n",
            "pkg.driver": (
                "from pkg.util import sync\n"
                "def run(comm):\n"
                "    sync(comm)\n"
            ),
        })
        assert analysis.footprint("pkg.driver.run") == frozenset({"alltoall"})

    def test_recursive_scc_reaches_a_fixpoint(self):
        analysis = _analysis({"m": (
            "def a(comm, n):\n"
            "    comm.barrier()\n"
            "    if n:\n"
            "        b(comm, n - 1)\n"
            "def b(comm, n):\n"
            "    comm.exscan(n)\n"
            "    a(comm, n)\n"
        )})
        both = frozenset({"barrier", "exscan"})
        assert analysis.footprint("m.a") == both
        assert analysis.footprint("m.b") == both

    def test_real_engine_footprints_are_interprocedural(self):
        # Regression guard: if the whole-program pass silently stopped
        # resolving calls, these footprints would collapse to direct
        # collectives only and SPMD-DIV would go blind across files.
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        project = Project.from_paths(sorted(src.rglob("*.py")))
        sclp = FootprintAnalysis(project).footprint("repro.engine.sclp.run_sclp")
        assert "halo_exchange" in sclp
        assert "allreduce" in sclp
