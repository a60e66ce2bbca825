"""Tests for DIMACS and npz graph I/O."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graph import (
    GraphError,
    load_npz,
    read_dimacs,
    save_npz,
    write_dimacs,
)

from ..conftest import random_graphs


class TestDimacs:
    def test_round_trip_unweighted(self, two_triangles, tmp_path):
        path = tmp_path / "g.dimacs"
        write_dimacs(two_triangles, path)
        again = read_dimacs(path)
        assert sorted(again.edges()) == sorted(two_triangles.edges())

    def test_round_trip_weighted(self, weighted_square, tmp_path):
        path = tmp_path / "w.dimacs"
        write_dimacs(weighted_square, path)
        again = read_dimacs(path)
        assert sorted(again.edges()) == sorted(weighted_square.edges())

    def test_skips_comments(self, tmp_path):
        path = tmp_path / "c.dimacs"
        path.write_text("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
        g = read_dimacs(path)
        assert g.num_nodes == 3 and g.num_edges == 2

    def test_rejects_edge_before_header(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("e 1 2\n")
        with pytest.raises(GraphError, match="before problem line"):
            read_dimacs(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "none.dimacs"
        path.write_text("c nothing here\n")
        with pytest.raises(GraphError, match="no problem line"):
            read_dimacs(path)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "mal.dimacs"
        path.write_text("p weird 3\n")
        with pytest.raises(GraphError, match="malformed"):
            read_dimacs(path)

    @pytest.mark.parametrize(("text", "message"), [
        # an IndexError and a ValueError before
        ("p edge 3 1\nc\ne 1\n", "line 3: malformed DIMACS edge line: 'e 1'"),
        ("p edge 3 1\ne 1 x\n", "line 2: malformed DIMACS edge line: 'e 1 x'"),
        ("p edge 3 1\ne 1 2 3 4\n", "line 2: malformed DIMACS edge line"),
        ("p edge x 1\n", "line 1: malformed DIMACS problem line"),
    ])
    def test_malformed_line_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        with pytest.raises(GraphError, match=message):
            read_dimacs(path)

    @given(random_graphs(max_nodes=20))
    def test_round_trip_random(self, graph):
        import io as _io
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.dimacs"
            write_dimacs(graph, path)
            again = read_dimacs(path)
            assert sorted(again.edges()) == sorted(graph.edges())


class TestNpz:
    def test_round_trip_preserves_everything(self, weighted_square, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(weighted_square, path)
        again = load_npz(path)
        assert again == weighted_square

    def test_name_survives(self, two_triangles, tmp_path):
        path = tmp_path / "named.npz"
        save_npz(two_triangles, path)
        assert load_npz(path).name == two_triangles.name
