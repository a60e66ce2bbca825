"""Tests for METIS / edge-list / partition-file I/O."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given

from repro.graph import (
    GraphError,
    read_edge_list,
    read_metis,
    read_partition,
    write_edge_list,
    write_metis,
    write_partition,
)

from ..conftest import random_graphs


class TestMetisFormat:
    def test_round_trip_unweighted(self, two_triangles, tmp_path):
        path = tmp_path / "g.metis"
        write_metis(two_triangles, path)
        again = read_metis(path)
        assert sorted(again.edges()) == sorted(two_triangles.edges())

    def test_round_trip_weighted(self, weighted_square, tmp_path):
        path = tmp_path / "w.metis"
        write_metis(weighted_square, path)
        again = read_metis(path)
        assert sorted(again.edges()) == sorted(weighted_square.edges())
        assert again.vwgt.tolist() == weighted_square.vwgt.tolist()

    def test_header_omits_fmt_for_unit_weights(self, two_triangles):
        buf = io.StringIO()
        write_metis(two_triangles, buf)
        assert buf.getvalue().splitlines()[0] == "6 7"

    def test_reads_comments(self):
        text = "% a comment\n3 2\n2\n% inline comment\n1 3\n2\n"
        g = read_metis(io.StringIO(text))
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_blank_line_is_isolated_node(self):
        text = "3 1\n2\n1\n\n"
        g = read_metis(io.StringIO(text))
        assert g.num_nodes == 3
        assert g.degree(2) == 0

    def test_rejects_wrong_edge_count(self):
        text = "3 5\n2\n1 3\n2\n"
        with pytest.raises(GraphError, match="promised"):
            read_metis(io.StringIO(text))

    def test_rejects_wrong_line_count(self):
        with pytest.raises(GraphError, match="adjacency lines"):
            read_metis(io.StringIO("3 1\n2\n1\n"))

    def test_rejects_node_sizes(self):
        with pytest.raises(GraphError, match="not supported"):
            read_metis(io.StringIO("1 0 100\n\n"))

    def test_rejects_empty_file(self):
        with pytest.raises(GraphError, match="empty"):
            read_metis(io.StringIO("% nothing\n"))

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            # an id of 0 used to be dropped: this loaded as the path 1-2-3
            ("3 2\n2 0\n1 3\n2\n", "line 2: neighbour id 0 is outside 1..3"),
            ("% c\n3 2\n2\n1 3\n2 -1\n", "line 5: neighbour id -1 is outside 1..3"),
            # an id above n used to die inside scipy
            ("3 2\n2\n1 3\n2 4\n", "line 4: neighbour id 4 is outside 1..3"),
            ("3 2 1\n2 1\n1 1 3 1\n2 1 9 1\n", "line 4: neighbour id 9 is outside 1..3"),
        ],
    )
    def test_rejects_neighbour_ids_outside_the_graph(self, text, message):
        with pytest.raises(GraphError, match=message):
            read_metis(io.StringIO(text))

    @given(random_graphs(min_nodes=1, max_nodes=25))
    def test_round_trip_random(self, graph):
        buf = io.StringIO()
        write_metis(graph, buf)
        buf.seek(0)
        again = read_metis(buf)
        assert sorted(again.edges()) == sorted(graph.edges())
        assert again.vwgt.tolist() == graph.vwgt.tolist()


class TestEdgeListFormat:
    def test_round_trip(self, weighted_square, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(weighted_square, path)
        again = read_edge_list(path)
        assert sorted(again.edges()) == sorted(weighted_square.edges())

    @pytest.mark.parametrize(("text", "message"), [
        # an IndexError and a reshape ValueError before
        ("", "edge-list file has 0 tokens, expected 1 \\+ 3\\*m"),
        ("3\n0 1\n", "edge-list file has 3 tokens, expected 1 \\+ 3\\*m"),
        ("3\n0 1 1\n2 x 1\n", "not an int64 integer"),
    ])
    def test_malformed_file_is_a_graph_error(self, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(GraphError, match=message):
            read_edge_list(path)


class TestPartitionFiles:
    def test_round_trip(self, tmp_path):
        part = np.array([0, 1, 2, 1, 0])
        path = tmp_path / "p.txt"
        write_partition(part, path)
        assert read_partition(path).tolist() == part.tolist()

    def test_single_entry(self, tmp_path):
        path = tmp_path / "p1.txt"
        write_partition(np.array([3]), path)
        assert read_partition(path).tolist() == [3]
