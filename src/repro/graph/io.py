"""Graph serialisation: METIS graph format and a simple edge-list format.

The METIS format is the lingua franca of the partitioning community (both
KaHIP and ParMetis consume it), so round-tripping it makes the library
interoperable with the real tools' inputs:

* header line: ``n m [fmt [ncon]]`` where ``fmt`` is a 3-digit flag string
  — ``1`` in the hundreds digit: node sizes (unsupported), tens digit:
  node weights, ones digit: edge weights;
* line ``i`` (1-based): the neighbours of node ``i`` (1-based ids),
  preceded by its weight if node weights are present, each neighbour
  followed by the edge weight if edge weights are present;
* ``%``-prefixed lines are comments.

Partition files are one block id per line, as written by the real tools.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

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


def read_metis(path: str | Path | io.TextIOBase, name: str | None = None) -> Graph:
    """Read a graph in METIS format."""
    if isinstance(path, io.TextIOBase):
        lines = path.read().splitlines()
    else:
        lines = Path(path).read_text(encoding="ascii").splitlines()
        name = name or Path(path).stem
    # Comment lines are skipped; blank lines are *kept* because an empty
    # adjacency line encodes an isolated node.  ``kept`` holds the file's
    # 0-based index of every line read, for the messages.
    kept = [i for i, ln in enumerate(lines) if not ln.lstrip().startswith("%")]
    while kept and not lines[kept[0]].strip():
        kept.pop(0)
    if not kept:
        raise GraphError("empty METIS file")
    lines = [lines[i] for i in kept]
    header = lines[0].split()
    n, m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "000"
    fmt = fmt.zfill(3)
    if fmt[0] != "0":
        raise GraphError("METIS node sizes (fmt=1xx) are not supported")
    node_weights = fmt[1] == "1"
    edge_weights = fmt[2] == "1"
    body = lines[1 : n + 1]
    extra = lines[n + 1 :]
    if len(body) != n or any(ln.strip() for ln in extra):
        found = len(body) + sum(1 for ln in extra if ln.strip())
        raise GraphError(f"expected {n} adjacency lines, found {found}")

    vwgt = np.ones(n, dtype=np.int64)
    rows: list[int] = []
    cols: list[int] = []
    wgts: list[int] = []
    for v, line in enumerate(body):
        tokens = [int(tok) for tok in line.split()]
        pos = 0
        if node_weights:
            vwgt[v] = tokens[0]
            pos = 1
        while pos < len(tokens):
            u = tokens[pos] - 1
            if not 0 <= u < n:
                raise GraphError(
                    f"line {kept[v + 1] + 1}: neighbour id {tokens[pos]} is outside 1..{n}")
            pos += 1
            w = 1
            if edge_weights:
                w = tokens[pos]
                pos += 1
            if u > v:  # count each undirected edge once
                rows.append(v)
                cols.append(u)
                wgts.append(w)
    graph = from_coo(
        n,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(wgts, dtype=np.int64),
        vwgt=vwgt,
        name=name or "metis-graph",
    )
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
    n = int(text[0])
    rest = np.asarray(text[1:], dtype=np.int64).reshape(-1, 3)
    return from_coo(
        n, rest[:, 0], rest[:, 1], rest[:, 2], name=name or Path(path).stem
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


def read_dimacs(path: str | Path, name: str | None = None) -> Graph:
    """Read the DIMACS edge format written by :func:`write_dimacs`."""
    n = None
    rows: list[int] = []
    cols: list[int] = []
    wgts: list[int] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) < 4 or tokens[1] not in ("edge", "col"):
                raise GraphError(f"malformed DIMACS problem line: {line!r}")
            n = int(tokens[2])
        elif tokens[0] == "e":
            if n is None:
                raise GraphError("DIMACS edge before problem line")
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
    if is_sharded_dir(path):
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
