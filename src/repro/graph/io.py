"""Graph serialisation: METIS graph format and a simple edge-list format.

The METIS format is the lingua franca of the partitioning community (both
KaHIP and ParMetis consume it), so round-tripping it makes the library
interoperable with the real tools' inputs:

* header line: ``n m [fmt [ncon]]`` where ``fmt`` is up to three digits,
  each 0 or 1 — hundreds: node sizes (unsupported), tens: node weights,
  ones: edge weights — and ``ncon``, if given, is 1;
* line ``i`` (1-based) of the body: the neighbours of node ``i`` (1-based
  ids), preceded by its weight if node weights are present, each
  neighbour followed by the edge weight if edge weights are present; a
  blank line is an isolated node;
* ``%``-prefixed lines are comments, anywhere in the file.

:func:`read_metis` reads the header here and the body in one compiled
pass (:func:`repro.native.parse_metis`).  Tokens are ``[+-]?[0-9]+`` in
int64, separated by spaces and tabs; lines end at ``\\n``, ``\\r\\n``
or ``\\r``; the file is ASCII.  Weights must be non-negative and the
adjacency symmetric: if node ``u`` lists ``v``, ``v`` lists ``u``, and
the weights of ``u``'s entries for ``v`` sum to those of ``v``'s for
``u``.  Self-loops are dropped and parallel entries summed.  A file that
breaks any of this raises :class:`GraphError` naming its line.

Partition files are one block id per line, as written by the real tools.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from .. import native
from .csr import Graph, GraphError
from .build import from_coo
from .store import (
    DEFAULT_NODES_PER_SHARD,
    DEFAULT_RESIDENT_SHARDS,
    MANIFEST_NAME,
    MmapShardStore,
    ShardedWriter,
)

__all__ = [
    "write_metis",
    "read_metis",
    "write_edge_list",
    "read_edge_list",
    "write_partition",
    "read_partition",
    "write_dimacs",
    "read_dimacs",
    "save_npz",
    "load_npz",
    "save_sharded",
    "open_sharded",
    "is_sharded_dir",
    "convert_to_sharded",
]


def _has_nontrivial(arr: np.ndarray) -> bool:
    return bool(arr.size) and bool(np.any(arr != 1))


def write_metis(graph: Graph, path: str | Path | io.TextIOBase) -> None:
    """Write ``graph`` in METIS format, emitting weights only if non-unit."""
    node_weights = _has_nontrivial(graph.vwgt)
    edge_weights = _has_nontrivial(graph.adjwgt)
    fmt = f"{0}{int(node_weights)}{int(edge_weights)}"

    def emit(handle) -> None:
        header = f"{graph.num_nodes} {graph.num_edges}"
        if node_weights or edge_weights:
            header += f" {fmt}"
        handle.write(header + "\n")
        for v in range(graph.num_nodes):
            parts: list[str] = []
            if node_weights:
                parts.append(str(int(graph.vwgt[v])))
            nbrs = graph.neighbors(v)
            wgts = graph.incident_weights(v)
            for u, w in zip(nbrs.tolist(), wgts.tolist()):
                parts.append(str(u + 1))
                if edge_weights:
                    parts.append(str(w))
            handle.write(" ".join(parts) + "\n")

    if isinstance(path, io.TextIOBase):
        emit(path)
    else:
        with open(path, "w", encoding="ascii") as handle:
            emit(handle)


#: the blank and ``%`` comment lines before the header, then the header line
_LEAD = re.compile(rb"(?:[ \t]*(?:%[^\r\n]*)?(?:\r\n?|\n))*([^\r\n]*)(?:\r\n?|\n)?")
#: ``n m [fmt [ncon]]``
_HEADER = re.compile(
    rb"[ \t]*([+-]?[0-9]+)[ \t]+([+-]?[0-9]+)"
    rb"(?:[ \t]+([0-9]+)(?:[ \t]+([+-]?[0-9]+))?)?[ \t]*"
)
_NOT_ASCII = re.compile(rb"[^\x00-\x7f]")


def _line_at(text: bytes, offset: int) -> int:
    """The file line of ``text[offset]`` (``\\n``, ``\\r\\n`` and ``\\r`` end lines)."""
    head = text[:offset]
    return 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def _metis_header(text: bytes) -> tuple[int, int, bool, bool, int, int]:
    """``n, m, node_weights, edge_weights`` of the METIS header of
    ``text``, the offset of the body and the file line it starts on."""
    lead = _LEAD.match(text)
    header, body = lead.group(1), lead.end()
    bad = _NOT_ASCII.search(text, 0, body)
    if bad:
        raise GraphError(f"line {_line_at(text, bad.start())}: byte "
                         f"0x{text[bad.start()]:02x} is not ASCII")
    line = _line_at(text, lead.start(1))
    fields = _HEADER.fullmatch(header)
    if not header.strip(b" \t") or header.lstrip(b" \t").startswith(b"%"):
        raise GraphError("empty METIS file")
    if fields is None:
        raise GraphError(f"line {line}: the header {header.decode()!r} is not "
                         "'n m [fmt [ncon]]' in integers")
    n, m = int(fields[1]), int(fields[2])
    if not (0 <= n < 2**63 and 0 <= m < 2**63):
        raise GraphError(f"line {line}: n={n} and m={m} must be int64 counts")
    fmt = (fields[3] or b"0").decode()
    if len(fmt) > 3 or fmt.strip("01"):
        raise GraphError(f"line {line}: fmt={fmt} is not a METIS format flag "
                         "(at most three digits, each 0 or 1)")
    fmt = fmt.zfill(3)
    if fmt[0] != "0":
        raise GraphError(f"line {line}: METIS node sizes (fmt=1xx) are not supported")
    if fields[4] is not None and int(fields[4]) != 1:
        raise GraphError(f"line {line}: ncon={int(fields[4])}: only one weight "
                         "per node is supported")
    if n > len(text) - body + 1:
        raise GraphError(f"line {line}: the header promises n={n} nodes, more "
                         "than the file has lines")
    return n, m, fmt[1] == "1", fmt[2] == "1", body, line + 1


def read_metis(path: str | Path | io.TextIOBase, name: str | None = None) -> Graph:
    """Read a graph in METIS format.

    The header is read here, the body by the compiled
    :func:`repro.native.parse_metis` (its grammar and refusals are in
    the module docstring).  Text from a stream is encoded as UTF-8, so a
    non-ASCII character is refused like a non-ASCII byte of a file.  A
    malformed file raises :class:`GraphError` naming its line.
    """
    if isinstance(path, io.TextIOBase):
        text = path.read().encode("utf-8", "surrogatepass")
    else:
        text = Path(path).read_bytes()
        name = name or Path(path).stem
    n, m, node_weights, edge_weights, body, line = _metis_header(text)
    try:
        vwgt, rows, cols, wgts = native.parse_metis(
            text, body, line, n, node_weights, edge_weights)
    except ValueError as exc:
        raise GraphError(str(exc)) from None
    graph = from_coo(n, rows, cols, wgts, vwgt=vwgt, name=name or "metis-graph")
    if graph.num_edges != m:
        raise GraphError(f"header promised m={m} edges, file contains {graph.num_edges}")
    return graph


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``n``, then one ``u v w`` line per undirected edge."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{graph.num_nodes}\n")
        for u, v, w in graph.edges():
            handle.write(f"{u} {v} {w}\n")


def read_edge_list(path: str | Path, name: str | None = None) -> Graph:
    """Read the edge-list format written by :func:`write_edge_list`."""
    text = Path(path).read_text(encoding="ascii").split()
    if len(text) % 3 != 1:
        raise GraphError(f"edge-list file has {len(text)} tokens, expected "
                         "1 + 3*m (n, then u v w per edge)")
    try:
        values = np.asarray(text, dtype=np.int64)
    except (ValueError, OverflowError):
        raise GraphError("edge-list file holds a token that is not an int64 "
                         "integer") from None
    rest = values[1:].reshape(-1, 3)
    return from_coo(
        int(values[0]), rest[:, 0], rest[:, 1], rest[:, 2], name=name or Path(path).stem
    )


def write_dimacs(graph: Graph, path: str | Path) -> None:
    """Write in DIMACS format: ``p edge n m`` then ``e u v [w]`` lines (1-based)."""
    weighted = _has_nontrivial(graph.adjwgt)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"p edge {graph.num_nodes} {graph.num_edges}\n")
        for u, v, w in graph.edges():
            if weighted:
                handle.write(f"e {u + 1} {v + 1} {w}\n")
            else:
                handle.write(f"e {u + 1} {v + 1}\n")


#: a DIMACS integer
_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_dimacs(path: str | Path, name: str | None = None) -> Graph:
    """Read the DIMACS edge format written by :func:`write_dimacs`."""
    n = None
    rows: list[int] = []
    cols: list[int] = []
    wgts: list[int] = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if (len(tokens) < 4 or tokens[1] not in ("edge", "col")
                    or not _INTEGER.fullmatch(tokens[2])):
                raise GraphError(f"line {number}: malformed DIMACS problem line: {line!r}")
            n = int(tokens[2])
        elif tokens[0] == "e":
            if n is None:
                raise GraphError("DIMACS edge before problem line")
            if len(tokens) not in (3, 4) or not all(map(_INTEGER.fullmatch, tokens[1:])):
                raise GraphError(f"line {number}: malformed DIMACS edge line: {line!r} "
                                 "(expected 'e u v [w]' in integers)")
            rows.append(int(tokens[1]) - 1)
            cols.append(int(tokens[2]) - 1)
            wgts.append(int(tokens[3]) if len(tokens) > 3 else 1)
    if n is None:
        raise GraphError("DIMACS file has no problem line")
    return from_coo(
        n,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(wgts, dtype=np.int64),
        name=name or Path(path).stem,
    )


def save_npz(graph: Graph, path: str | Path) -> None:
    """Persist a graph's CSR arrays as a compressed ``.npz`` archive.

    ``graph.name`` is stored in the archive, and — consistent with
    :func:`write_metis`'s ``_has_nontrivial`` logic — all-ones weight
    arrays are omitted; :func:`load_npz` restores them as unit weights.
    """
    arrays: dict[str, np.ndarray] = {
        "xadj": graph.xadj,
        "adjncy": graph.adjncy,
        "name": np.array(graph.name),
    }
    if _has_nontrivial(graph.vwgt):
        arrays["vwgt"] = graph.vwgt
    if _has_nontrivial(graph.adjwgt):
        arrays["adjwgt"] = graph.adjwgt
    np.savez_compressed(path, **arrays)


def load_npz(path: str | Path) -> Graph:
    """Load a graph written by :func:`save_npz` (weights default to 1)."""
    with np.load(path, allow_pickle=False) as data:
        xadj = data["xadj"]
        adjncy = data["adjncy"]
        return Graph.from_csr(
            xadj,
            adjncy,
            vwgt=data["vwgt"] if "vwgt" in data else None,
            adjwgt=data["adjwgt"] if "adjwgt" in data else None,
            name=str(data["name"]) if "name" in data else Path(path).stem,
        )


# ----------------------------------------------------------------------
# Sharded on-disk CSR (out-of-core)
# ----------------------------------------------------------------------

def save_sharded(
    graph: Graph,
    out_dir: str | Path,
    nodes_per_shard: int = DEFAULT_NODES_PER_SHARD,
) -> Path:
    """Write ``graph`` as a shard directory (see :mod:`repro.graph.store`).

    Arc blocks are taken through the store one shard at a time, so
    converting an already-sharded graph to a new shard layout does not
    materialize it.  Returns the manifest path.
    """
    writer = ShardedWriter(
        out_dir, graph.num_nodes, nodes_per_shard=nodes_per_shard,
        name=graph.name,
    )
    xadj = graph.xadj
    degrees = graph.degrees
    for lo in range(0, graph.num_nodes, writer.nodes_per_shard):
        hi = min(lo + writer.nodes_per_shard, graph.num_nodes)
        adjncy, adjwgt = graph.arc_block(int(xadj[lo]), int(xadj[hi]))
        writer.add_shard(degrees[lo:hi], adjncy, adjwgt)
    return writer.finish(vwgt=graph.vwgt)


def open_sharded(
    directory: str | Path,
    max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
) -> Graph:
    """Open a shard directory as an out-of-core :class:`Graph`.

    The returned graph keeps only ``xadj``/``vwgt`` in RAM; arc blocks
    are memory-mapped on demand with at most ``max_resident_shards``
    shards resident.  Accessing ``graph.adjncy`` directly materializes
    the arc arrays — use ``graph.arc_block`` for memory-bound code.
    """
    return Graph.from_store(
        MmapShardStore.open(directory, max_resident_shards=max_resident_shards)
    )


def is_sharded_dir(path: str | Path) -> bool:
    """Whether ``path`` is a shard directory (has a ``manifest.json``)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def convert_to_sharded(
    input_path: str | Path,
    out_dir: str | Path,
    nodes_per_shard: int = DEFAULT_NODES_PER_SHARD,
) -> Path:
    """Convert a METIS/npz/edge-list/shard-dir graph file to shards."""
    path = Path(input_path)
    if path.is_dir():
        graph = open_sharded(path)
    elif path.suffix == ".npz":
        graph = load_npz(path)
    elif path.suffix in (".metis", ".graph"):
        graph = read_metis(path)
    elif path.suffix in (".dimacs", ".col"):
        graph = read_dimacs(path)
    else:
        graph = read_edge_list(path)
    return save_sharded(graph, out_dir, nodes_per_shard=nodes_per_shard)


def write_partition(partition: np.ndarray, path: str | Path) -> None:
    """Write one block id per line (the format ParMetis/KaHIP emit)."""
    np.savetxt(path, np.asarray(partition, dtype=np.int64), fmt="%d")


def read_partition(path: str | Path) -> np.ndarray:
    """Read a partition file written by :func:`write_partition`."""
    return np.loadtxt(path, dtype=np.int64, ndmin=1)
