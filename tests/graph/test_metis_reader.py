"""The compiled METIS reader against its twin, and what it refuses.

* :func:`repro.native.parse_metis` and the per-token loop it replaced
  (``tests/graph/metis_twin.py``) return the same four arrays, or raise
  the same error text, on METIS texts that :func:`write_metis` writes and
  that are then re-spelled (comments, blank lines, line ends, tabs, signs,
  leading zeros, the ``fmt`` digits) or corrupted;
* every malformed file is refused with a :class:`GraphError` naming its
  line, by the kernel and by the twin;
* the bench's own instance reads back as the graph that was written.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import native
from repro.generators import delaunay
from repro.graph import GraphError, empty_graph, from_edges, read_metis, write_metis
from repro.graph.io import _metis_header

from ..conftest import python_twins, random_graphs
from . import metis_twin

KERNELS = pytest.mark.parametrize("kernel", ["compiled_kernels", "numpy_kernel"])

#: what a corruption may put in place of a body token
JUNK = ["2x", "-1", "0", "+", "", "99999999999999999999", "é", "1.5", "%"]


@st.composite
def metis_texts(draw) -> str:
    """A graph as :func:`write_metis` writes it, re-spelled and maybe
    corrupted."""
    graph = draw(st.one_of(
        st.just(empty_graph(0)), random_graphs(min_nodes=1, max_nodes=12)))
    unit_nodes, unit_edges = draw(st.booleans()), draw(st.booleans())
    if unit_nodes or unit_edges:
        graph = graph.with_weights(
            vwgt=np.ones_like(graph.vwgt) if unit_nodes else None,
            adjwgt=np.ones_like(graph.adjwgt) if unit_edges else None)
    buf = io.StringIO()
    write_metis(graph, buf)
    lines = [line.split(" ") if line else [] for line in buf.getvalue().split("\n")[:-1]]
    header = lines[0]
    if len(header) == 3:  # the fmt digits, spelled with or without zeros
        header[2] = draw(st.sampled_from([header[2], header[2].lstrip("0") or "0"]))
    elif draw(st.booleans()):
        header.append(draw(st.sampled_from(["0", "00", "000"])))
    body = lines[1:]
    for tokens in body:
        for i, token in enumerate(tokens):
            tokens[i] = draw(st.sampled_from(["", "", "+", "0", "00", "+0"])) + token
    if body and draw(st.integers(0, 2)) == 0:  # corrupt one line
        at = draw(st.integers(0, len(body) - 1))
        tokens = body[at]
        how = draw(st.sampled_from(["junk", "drop token", "drop line", "extra line"]))
        if how == "junk":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(JUNK)))
        elif how == "drop token" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif how == "drop line":
            del body[at]
        else:
            body.insert(at, ["1"])
    out = [" ".join(header)]
    for tokens in body:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["%", "% a comment", "  %\tx 1 2"])))
        seps = [draw(st.sampled_from([" ", " ", "\t", " \t "])) for _ in tokens]
        out.append("".join(s + t for s, t in zip(["", *seps[1:]], tokens)))
    out += [draw(st.sampled_from(["", " ", "\t", "% end"]))
            for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        out.insert(0, "% leading comment")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(out) + draw(st.sampled_from([end, ""]))


def kernel_outcome(parse, text: bytes):
    """The four arrays of ``parse`` on the body of ``text``, or the error."""
    try:
        n, _, node_weights, edge_weights, body, line = _metis_header(text)
        return [a.tolist() for a in parse(text, body, line, n, node_weights, edge_weights)]
    except (GraphError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def reader_outcome(text: str):
    """The graph :func:`read_metis` reads, or its ``GraphError`` text."""
    try:
        graph = read_metis(io.StringIO(text))
    except GraphError as exc:
        return str(exc)
    return [graph.xadj.tolist(), graph.adjncy.tolist(), graph.adjwgt.tolist(),
            graph.vwgt.tolist()]


class TestKernelMatchesTwin:
    @given(metis_texts())
    @example("0 0\n")
    @example("1 0\n\n")
    @example("1 0 11\n7 1 3\n")  # a weighted self-loop is dropped
    @example("3 2\r\n2\r\n%\r\n1\t3\r\n\r\n2\r\n")
    @example("2 1\n2 2\n1 1\n")  # parallel entries, both ways
    def test_same_arrays_or_same_error(self, text):
        data = text.encode("utf-8")
        compiled = kernel_outcome(native.parse_metis, data)
        assert compiled == kernel_outcome(metis_twin.parse_metis, data)
        read = reader_outcome(text)
        with python_twins():
            assert reader_outcome(text) == read
        if isinstance(compiled, str):
            assert isinstance(read, str) and read in compiled

    def test_a_well_formed_spelling_reads_as_the_graph(self):
        graph = from_edges(5, [(0, 1), (1, 2), (0, 4)], weights=[3, 1, 2],
                           vwgt=np.array([1, 2, 3, 4, 5]))
        buf = io.StringIO()
        write_metis(graph, buf)
        plain = buf.getvalue()
        header, body = plain.split("\n", 1)
        spelled = (f"% c\n{header}\n" + body.replace(" ", " \t+0").replace("\n", "\r\n")
                   + "\r\n  \r\n% end")
        assert read_metis(io.StringIO(spelled)) == read_metis(io.StringIO(plain))


@KERNELS
class TestRefusals:
    """Each file here loaded, or failed with something other than a
    ``GraphError``, before the compiled reader."""

    @pytest.mark.parametrize(("text", "message"), [
        ("2 1\n2x\n1\n", "line 2: token '2x' is not an integer"),
        ("2 1\n2 +\n1\n", "line 2: token '\\+' is not an integer"),
        ("2 1\n% c\n2\n1\f\n", "line 4: token '1\\\\x0c' is not an integer"),
        ("2 1\n2\n1 9223372036854775808\n",
         "line 3: token '9223372036854775808' does not fit in int64"),
        ("2 1 1\n2\n1 1\n", "line 2: neighbour id 2 has no edge weight"),
        ("2 1 10\n\n1 1\n", "line 2: no node weight"),
        ("2 1 1\n2 -3\n1 -3\n", "line 2: edge weight -3 is negative"),
        ("2 1 10\n-1 2\n1 1\n", "line 2: node weight -1 is negative"),
        ("2 1\n2\n1 é\n", "line 3: byte 0xc3 is not ASCII"),
        ("% é\n2 1\n2\n1\n", "line 1: byte 0xc3 is not ASCII"),
        ("2 1\n2\n% café\n1\n", "line 3: byte 0xc3 is not ASCII"),
        ("2 1 0 2\n2\n1\n", "line 1: ncon=2: only one weight per node"),
        ("2 1 11 3\n1 2 1\n1 1 1\n", "line 1: ncon=3"),
        ("2 1 2\n2\n1\n", "line 1: fmt=2 is not a METIS format flag"),
        ("2 1 0011\n2\n1\n", "line 1: fmt=0011 is not a METIS format flag"),
        ("2 1 x\n2\n1\n", "line 1: the header '2 1 x' is not 'n m"),
        ("2 1\n2\n1\n\n3\n", "line 5: expected 2 adjacency lines, found 3"),
    ])
    def test_malformed_file_names_its_line(self, text, message, kernel, request):
        request.getfixturevalue(kernel)
        with pytest.raises(GraphError, match=message):
            read_metis(io.StringIO(text))

    def test_non_ascii_byte_in_a_file(self, kernel, request, tmp_path):
        request.getfixturevalue(kernel)
        path = tmp_path / "latin1.metis"
        path.write_bytes(b"2 1\n2\n1 \xe9\n")
        with pytest.raises(GraphError, match="line 3: byte 0xe9 is not ASCII"):
            read_metis(path)

    @pytest.mark.parametrize(("text", "message"), [
        # only the u > v half used to be read: this loaded as the path 1-2-3
        ("3 2\n2 3\n\n\n", "line 2: node 1 lists neighbour 2, but node 2 \\(line 3\\) "
                           "does not list 1"),
        ("% c\n3 1\n\n\n2\n", "line 5: node 3 lists neighbour 2, but node 2 \\(line 4\\)"),
        ("2 1 1\n2 3\n1 4\n", "line 2: edge \\(1, 2\\) weighs 3 here but 4 on line 3"),
        ("2 1\n2 2\n1\n", "line 2: edge \\(1, 2\\) weighs 2 here but 1 on line 3"),
        # the first one-sided entry: line 3's, not line 4's
        ("3 1\n\n3 1\n2\n", "line 3: node 2 lists neighbour 1, but node 1 \\(line 2\\)"),
    ])
    def test_asymmetric_adjacency(self, text, message, kernel, request):
        request.getfixturevalue(kernel)
        with pytest.raises(GraphError, match=message):
            read_metis(io.StringIO(text))


@KERNELS
def test_bench_instance_reads_back(kernel, request, tmp_path):
    """The instance of the bench's text-loading workload: the reader
    returns the arrays that were written (the parent reader's)."""
    graph = delaunay(14, seed=1)
    path = tmp_path / "del14.metis"
    write_metis(graph, path)
    request.getfixturevalue(kernel)
    again = read_metis(path)
    for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
        np.testing.assert_array_equal(getattr(again, name), getattr(graph, name))
    assert again.name == "del14"
