"""Pluggable graph storage: the CSR arrays behind :class:`~repro.graph.csr.Graph`.

The paper's headline scaling story is partitioning complex networks that
competitors cannot even load, and *(Semi-)External Algorithms for Graph
Partitioning and Clustering* (arXiv:1404.4887) gives the recipe: keep the
O(n) state (head pointers, node weights, labels) in RAM and stream the
O(m) arc arrays from disk in blocks.  This module is the storage side of
that recipe — a :class:`GraphStore` protocol serving the four CSR arrays,
with three implementations:

* :class:`InMemoryStore` — plain NumPy arrays, zero-copy, the default.
  Every existing code path degenerates to exactly what it did before.
* :class:`MmapShardStore` — a sharded on-disk CSR: a directory of
  ``.npy`` chunk files plus a JSON manifest, memory-mapped on demand
  with an LRU bound on resident shards.  The O(n) arrays (``xadj``,
  ``vwgt``) are loaded into RAM at open; the O(m) arrays (``adjncy``,
  ``adjwgt``) never are.
* :class:`SharedMemoryStore` — the CSR arrays parked in
  ``multiprocessing.shared_memory`` segments, absorbing the process
  backend's former ``dist/shm.py`` implementation: the parent creates,
  workers attach zero-copy, the parent unlinks.

Shard format (``repro-sharded-csr`` version 1)
----------------------------------------------
A shard directory contains::

    manifest.json          format, version, name, counts, shard table
    xadj.npy               int64[n + 1]   (always present)
    vwgt.npy               int64[n]       (omitted when all-ones)
    shard-NNNNN.adjncy.npy int64 arc targets of one node range
    shard-NNNNN.adjwgt.npy int64 arc weights  (omitted when all-ones)

Every shard covers a contiguous node range of ``nodes_per_shard`` nodes
(the last shard may be short).  ``nodes_per_shard`` is a power of two so
SCLP chunk sizes can be clamped to divisors of it: a chunk window of the
node-ordered scan then touches exactly one shard.

Consistency is checked at two levels: :func:`MmapShardStore.open`
validates the manifest against the on-disk ``xadj`` (contiguous node and
arc ranges, matching totals), and each shard file against its manifest
entry on every map.  The first map of a file parses its ``.npy`` header
once and refuses anything but a 1-D, C-order, native int64 array of the
manifest's arc count; every later map (a shard miss) is one ``open``, a
compare of the kept header bytes and one ``mmap`` of exactly header +
arcs bytes: 13–19 µs, against 94–138 µs for a per-miss ``np.load``
(``tools/shard_miss_bench.py`` on a 2-vCPU Xeon VM).  A truncated,
swapped or re-saved file raises :class:`StoreError` naming the file
instead of serving garbage.
Evicted mappings are dropped, not kept: a mapping holds a duplicate of
its file's descriptor, so one mapping per shard would hold one
descriptor per shard and fail past ``ulimit -n``.
"""

from __future__ import annotations

import json
import mmap
import os
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.lib import format as npy_format

from .csr import GraphError
from .validation import check_integer

__all__ = [
    "DEFAULT_NODES_PER_SHARD",
    "DEFAULT_RESIDENT_SHARDS",
    "MANIFEST_NAME",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "SHM_PREFIX",
    "StoreError",
    "StoreStats",
    "GraphStore",
    "InMemoryStore",
    "MmapShardStore",
    "SharedMemoryStore",
    "readonly_view",
    "SharedCSRHandle",
    "ShardedWriter",
    "align_chunk_to_span",
    "validate_csr",
]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.int64

#: default node span of one on-disk shard (a power of two, see module doc)
DEFAULT_NODES_PER_SHARD = 1 << 16

#: default LRU bound on concurrently mapped shards
DEFAULT_RESIDENT_SHARDS = 4

MANIFEST_NAME = "manifest.json"
FORMAT_NAME = "repro-sharded-csr"
FORMAT_VERSION = 1

#: shared-memory segment name prefix (visible as ``/dev/shm/<name>`` on
#: Linux); tests scan for leaks by this prefix
SHM_PREFIX = "repro_csr"

_SHM_FIELDS = ("xadj", "adjncy", "vwgt", "adjwgt")


class StoreError(GraphError):
    """Raised when a graph store's on-disk state is missing or corrupt."""


def validate_csr(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    vwgt: np.ndarray,
    adjwgt: np.ndarray,
) -> None:
    """Check the CSR invariants every :class:`Graph` relies on."""
    if xadj.ndim != 1 or xadj.size == 0:
        raise GraphError("xadj must be a 1-d array of length n + 1")
    if xadj[0] != 0:
        raise GraphError("xadj must start at 0")
    if xadj[-1] != adjncy.size:
        raise GraphError(
            f"xadj[-1] ({xadj[-1]}) must equal len(adjncy) ({adjncy.size})"
        )
    if np.any(np.diff(xadj) < 0):
        raise GraphError("xadj must be non-decreasing")
    num_nodes = xadj.size - 1
    if vwgt.size != num_nodes:
        raise GraphError("vwgt must have length n")
    if adjwgt.size != adjncy.size:
        raise GraphError("adjwgt must be parallel to adjncy")
    if adjncy.size and (adjncy.min() < 0 or adjncy.max() >= num_nodes):
        raise GraphError("adjncy contains out-of-range node ids")


def align_chunk_to_span(chunk: int, span: int | None) -> int:
    """Clamp an SCLP chunk request to a divisor of the shard node span.

    The chunked engine windows the node-ordered visit sequence in steps
    of the chunk size from offset 0, so a chunk that divides the shard
    span keeps every window inside one shard — one mmap touch per chunk
    instead of a seam crossing on every window.  ``chunk <= 1`` (the
    bit-exact scan-equivalent regime) and spanless stores pass through
    unchanged; otherwise the result is the largest power of two that is
    ``<= min(chunk, span)``, which divides any power-of-two span.
    """
    if span is None or chunk <= 1:
        return chunk
    clamped = min(int(chunk), int(span))
    clamped = 1 << (clamped.bit_length() - 1)
    while span % clamped and clamped > 1:
        clamped >>= 1
    return max(1, clamped)


@dataclass
class StoreStats:
    """Access counters a store keeps (all zero for resident stores)."""

    gathers: int = 0  #: arc_block calls served
    arcs_read: int = 0  #: arc entries returned across all calls
    shard_hits: int = 0  #: shard touches that found the shard mapped
    shard_misses: int = 0  #: shard touches that had to map the file
    shard_evictions: int = 0  #: shards dropped by the LRU bound

    def as_dict(self) -> dict[str, int]:
        return {
            "gathers": self.gathers,
            "arcs_read": self.arcs_read,
            "shard_hits": self.shard_hits,
            "shard_misses": self.shard_misses,
            "shard_evictions": self.shard_evictions,
        }


@runtime_checkable
class GraphStore(Protocol):
    """What :class:`~repro.graph.csr.Graph` needs from a storage backend.

    The O(n) arrays (``xadj``, ``vwgt``) are always RAM-resident NumPy
    arrays; the O(m) arc arrays are served through :meth:`arc_block`
    so a store may keep them on disk.  ``resident``
    tells engine drivers whether whole-array access (``materialize``)
    is free or would defeat the store's memory bound.
    """

    name: str
    xadj: np.ndarray
    vwgt: np.ndarray

    @property
    def num_nodes(self) -> int: ...
    @property
    def num_arcs(self) -> int: ...
    @property
    def resident(self) -> bool: ...
    @property
    def chunk_nodes(self) -> int | None: ...

    def arc_block(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]: ...
    def materialize(self) -> tuple[np.ndarray, np.ndarray]: ...
    def clamp_chunk(self, chunk: int) -> int: ...
    def stats(self) -> StoreStats: ...
    def close(self) -> None: ...


def readonly_view(arr: np.ndarray) -> np.ndarray:
    """``arr`` as an array that refuses writes (``arr`` itself if it does).

    CSR buffers are shared — between a graph and its ``with_weights``
    copies, between the ranks of a thread run — so an in-place write
    raises ``ValueError: assignment destination is read-only`` at the
    faulting line, on every backend, as it always has on process ranks.
    """
    if not arr.flags.writeable:
        return arr
    view = arr.view()
    view.setflags(write=False)
    return view


class InMemoryStore:
    """The default store: four contiguous, read-only int64 arrays."""

    __slots__ = ("name", "xadj", "adjncy", "vwgt", "adjwgt", "_stats")

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        vwgt: np.ndarray,
        adjwgt: np.ndarray,
        name: str = "graph",
    ) -> None:
        self.xadj = readonly_view(np.ascontiguousarray(xadj, dtype=_INDEX_DTYPE))
        self.adjncy = readonly_view(np.ascontiguousarray(adjncy, dtype=_INDEX_DTYPE))
        self.vwgt = readonly_view(np.ascontiguousarray(vwgt, dtype=_WEIGHT_DTYPE))
        self.adjwgt = readonly_view(np.ascontiguousarray(adjwgt, dtype=_WEIGHT_DTYPE))
        self.name = name
        self._stats = StoreStats()
        validate_csr(self.xadj, self.adjncy, self.vwgt, self.adjwgt)

    @property
    def num_nodes(self) -> int:
        return int(self.xadj.size - 1)

    @property
    def num_arcs(self) -> int:
        return int(self.adjncy.size)

    @property
    def resident(self) -> bool:
        return True

    @property
    def chunk_nodes(self) -> int | None:
        return None

    def arc_block(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        return self.adjncy[start:end], self.adjwgt[start:end]

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        return self.adjncy, self.adjwgt

    def clamp_chunk(self, chunk: int) -> int:
        return chunk

    def stats(self) -> StoreStats:
        return self._stats

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable description of a graph parked in shared memory."""

    graph_name: str
    num_nodes: int
    #: ``(field, segment name, element count)`` per CSR array, all int64
    segments: tuple[tuple[str, str, int], ...]


class SharedMemoryStore(InMemoryStore):
    """CSR arrays in ``multiprocessing.shared_memory`` segments.

    One code path serves both sides of the process backend: the parent
    :meth:`create`\\ s the segments from a graph, workers :meth:`attach`
    by handle and see read-only zero-copy views, and the parent
    :meth:`unlink`\\ s once — including on worker crash and watchdog
    paths — so no ``/dev/shm`` entries outlive the run.  Workers share
    the parent's :mod:`multiprocessing.resource_tracker`, so attaching
    does not create a second ownership record to leak or double-free.
    """

    __slots__ = ("handle", "segments", "_owner")

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        segments: list,
        handle: SharedCSRHandle,
        owner: bool,
    ) -> None:
        super().__init__(
            arrays["xadj"], arrays["adjncy"], arrays["vwgt"], arrays["adjwgt"],
            name=handle.graph_name,
        )
        self.handle = handle
        self.segments = segments
        self._owner = owner

    @classmethod
    def create(cls, graph) -> "SharedMemoryStore":
        """Park ``graph``'s CSR arrays in fresh shared-memory segments."""
        from multiprocessing import shared_memory

        segments: list = []
        entries: list[tuple[str, str, int]] = []
        arrays: dict[str, np.ndarray] = {}
        try:
            for field_name in _SHM_FIELDS:
                src = np.ascontiguousarray(
                    getattr(graph, field_name), dtype=np.int64
                )
                seg_name = f"{SHM_PREFIX}_{uuid.uuid4().hex[:12]}_{field_name}"
                seg = shared_memory.SharedMemory(
                    name=seg_name, create=True, size=max(1, src.nbytes)
                )
                segments.append(seg)
                view = np.ndarray(src.shape, dtype=np.int64, buffer=seg.buf)
                if src.size:
                    view[:] = src
                view.setflags(write=False)
                arrays[field_name] = view
                entries.append((field_name, seg.name, int(src.size)))
        except BaseException:
            _release_segments(segments, unlink=True)
            raise
        handle = SharedCSRHandle(
            graph_name=graph.name, num_nodes=graph.num_nodes,
            segments=tuple(entries),
        )
        return cls(arrays, segments, handle, owner=True)

    @classmethod
    def attach(cls, handle: SharedCSRHandle) -> "SharedMemoryStore":
        """Map an existing handle's segments (worker side, zero-copy).

        The arrays are read-only views; the segments belong to the
        creating side, which is the only side that unlinks.
        """
        from multiprocessing import shared_memory

        arrays: dict[str, np.ndarray] = {}
        segments: list = []
        try:
            for field_name, seg_name, count in handle.segments:
                seg = shared_memory.SharedMemory(name=seg_name)
                segments.append(seg)
                view = np.ndarray((count,), dtype=np.int64, buffer=seg.buf)
                view.setflags(write=False)
                arrays[field_name] = view
        except BaseException:
            _release_segments(segments, unlink=False)
            raise
        return cls(arrays, segments, handle, owner=False)

    def unlink(self) -> None:
        """Destroy the segments (idempotent; owner side only)."""
        segments, self.segments = self.segments, []
        _release_segments(segments, unlink=self._owner)

    def close(self) -> None:
        """Drop this side's mapping without destroying the segments."""
        if self._owner:
            self.unlink()
            return
        segments, self.segments = self.segments, []
        _release_segments(segments, unlink=False)


def _release_segments(segments: list, unlink: bool) -> None:
    for seg in segments:
        try:
            seg.close()
            if unlink:
                seg.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Sharded on-disk CSR
# ----------------------------------------------------------------------

def _shard_stem(index: int) -> str:
    return f"shard-{index:05d}"


class ShardedWriter:
    """Sequential writer of the ``repro-sharded-csr`` format.

    Feed node ranges in ascending order — one :meth:`add_shard` call per
    ``nodes_per_shard`` span with that span's adjacency block — and
    :meth:`finish` writes ``xadj``, ``vwgt`` and the manifest.  Only one
    shard's arrays are alive at a time, which is what lets the streaming
    generators emit graphs they never materialize.
    """

    def __init__(
        self,
        out_dir: str | Path,
        num_nodes: int,
        nodes_per_shard: int = DEFAULT_NODES_PER_SHARD,
        name: str = "graph",
    ) -> None:
        if nodes_per_shard < 1:
            raise ValueError("nodes_per_shard must be >= 1")
        if nodes_per_shard & (nodes_per_shard - 1):
            raise ValueError(
                f"nodes_per_shard must be a power of two, got {nodes_per_shard}"
            )
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.num_nodes = int(num_nodes)
        self.nodes_per_shard = int(nodes_per_shard)
        self.name = name
        self._xadj = np.zeros(self.num_nodes + 1, dtype=_INDEX_DTYPE)
        self._next_node = 0
        self._next_arc = 0
        self._shards: list[dict] = []
        self._any_weights = False

    def add_shard(
        self,
        degrees: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray | None = None,
    ) -> None:
        """Write the next node range's adjacency block as one shard.

        ``degrees`` covers the nodes ``[next, next + len(degrees))`` in
        order; ``adjncy`` concatenates their adjacency lists; ``adjwgt``
        may be omitted for unit weights.
        """
        degrees = np.asarray(degrees, dtype=_INDEX_DTYPE)
        adjncy = np.ascontiguousarray(adjncy, dtype=_INDEX_DTYPE)
        lo = self._next_node
        hi = lo + degrees.size
        if hi > self.num_nodes:
            raise StoreError(
                f"shard node range [{lo}, {hi}) exceeds num_nodes={self.num_nodes}"
            )
        if degrees.size != min(self.nodes_per_shard, self.num_nodes - lo):
            raise StoreError(
                f"shard starting at node {lo} must cover "
                f"{min(self.nodes_per_shard, self.num_nodes - lo)} nodes, "
                f"got {degrees.size}"
            )
        if int(degrees.sum()) != adjncy.size:
            raise StoreError(
                f"shard starting at node {lo}: degrees sum to "
                f"{int(degrees.sum())} but adjncy has {adjncy.size} arcs"
            )
        index = len(self._shards)
        stem = _shard_stem(index)
        np.save(self.out_dir / f"{stem}.adjncy.npy", adjncy)
        entry = {
            "nodes": [int(lo), int(hi)],
            "arcs": [int(self._next_arc), int(self._next_arc + adjncy.size)],
            "adjncy": f"{stem}.adjncy.npy",
            "adjwgt": None,
        }
        if adjwgt is not None:
            adjwgt = np.ascontiguousarray(adjwgt, dtype=_WEIGHT_DTYPE)
            if adjwgt.size != adjncy.size:
                raise StoreError(
                    f"shard starting at node {lo}: adjwgt must parallel adjncy"
                )
            if bool(np.any(adjwgt != 1)):
                np.save(self.out_dir / f"{stem}.adjwgt.npy", adjwgt)
                entry["adjwgt"] = f"{stem}.adjwgt.npy"
                self._any_weights = True
        self._shards.append(entry)
        np.cumsum(degrees, out=self._xadj[lo + 1 : hi + 1])
        self._xadj[lo + 1 : hi + 1] += self._next_arc
        self._next_node = hi
        self._next_arc += adjncy.size

    def finish(self, vwgt: np.ndarray | None = None) -> Path:
        """Write ``xadj``/``vwgt``/manifest; returns the manifest path."""
        if self._next_node != self.num_nodes:
            raise StoreError(
                f"writer covered {self._next_node} of {self.num_nodes} nodes"
            )
        np.save(self.out_dir / "xadj.npy", self._xadj)
        vwgt_file = None
        if vwgt is not None:
            vwgt = np.ascontiguousarray(vwgt, dtype=_WEIGHT_DTYPE)
            if vwgt.size != self.num_nodes:
                raise StoreError("vwgt must have length num_nodes")
            if bool(np.any(vwgt != 1)):
                np.save(self.out_dir / "vwgt.npy", vwgt)
                vwgt_file = "vwgt.npy"
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_arcs": int(self._next_arc),
            "nodes_per_shard": self.nodes_per_shard,
            "xadj": "xadj.npy",
            "vwgt": vwgt_file,
            "shards": self._shards,
        }
        path = self.out_dir / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        return path


class MmapShardStore:
    """Sharded on-disk CSR with LRU-bounded memory-mapped shard residency.

    ``xadj`` and ``vwgt`` live in RAM (the semi-external O(n) budget);
    arc blocks are served by mapping the owning shard files read-only
    (:meth:`_mmap_file`).  At most ``max_resident_shards`` shards
    are mapped at once: touching an unmapped shard evicts the least
    recently used mapping, returning its file-backed pages to the
    kernel, which is what bounds peak RSS.  A block read in place stays
    valid while its caller holds it (see :meth:`arc_block`).
    """

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
    ) -> None:
        self._dir = Path(directory)
        self.name = str(manifest.get("name") or self._dir.name)
        self._num_nodes = int(manifest["num_nodes"])
        self._num_arcs = int(manifest["num_arcs"])
        self._nodes_per_shard = int(manifest["nodes_per_shard"])
        self._max_resident = check_integer("max_resident_shards",
                                           max_resident_shards)
        self._stats = StoreStats()
        self._mapped: OrderedDict[int, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )
        # the weights of unweighted shards: one read-only block, grown on demand
        self._ones = np.empty(0, dtype=_WEIGHT_DTYPE)

        shards = manifest["shards"]
        self._arc_offsets = np.empty(len(shards) + 1, dtype=_INDEX_DTYPE)
        self._arc_offsets[0] = 0
        prev_node = 0
        for i, entry in enumerate(shards):
            n_lo, n_hi = entry["nodes"]
            a_lo, a_hi = entry["arcs"]
            if n_lo != prev_node or a_lo != int(self._arc_offsets[i]):
                raise StoreError(
                    f"{self._dir / MANIFEST_NAME}: shard {i} ranges are not "
                    f"contiguous (nodes [{n_lo}, {n_hi}), arcs [{a_lo}, {a_hi}))"
                )
            self._arc_offsets[i + 1] = a_hi
            prev_node = n_hi
        if prev_node != self._num_nodes:
            raise StoreError(
                f"{self._dir / MANIFEST_NAME}: shards cover {prev_node} nodes, "
                f"manifest promises {self._num_nodes}"
            )
        if int(self._arc_offsets[-1]) != self._num_arcs:
            raise StoreError(
                f"{self._dir / MANIFEST_NAME}: shards cover "
                f"{int(self._arc_offsets[-1])} arcs, manifest promises "
                f"{self._num_arcs}"
            )
        # Per shard: its arc count and the path strings of its files, so a
        # miss does no manifest or pathlib work.
        self._shard_files: list[tuple[int, str, str | None]] = []
        for i, entry in enumerate(shards):
            adjncy = os.path.join(self._dir, entry["adjncy"])
            adjwgt = entry.get("adjwgt")
            adjwgt = os.path.join(self._dir, adjwgt) if adjwgt else None
            for path in (adjncy, adjwgt):
                if path is not None and not os.path.isfile(path):
                    raise StoreError(f"shard file missing: {path}")
            expect = int(self._arc_offsets[i + 1] - self._arc_offsets[i])
            self._shard_files.append((expect, adjncy, adjwgt))
        # the .npy header bytes of every shard file mapped so far
        self._headers: dict[str, bytes] = {}

        self.xadj = self._load_array(manifest["xadj"], self._num_nodes + 1)
        if manifest.get("vwgt"):
            self.vwgt = self._load_array(manifest["vwgt"], self._num_nodes)
        else:
            self.vwgt = np.ones(self._num_nodes, dtype=_WEIGHT_DTYPE)
        if self.xadj[0] != 0 or int(self.xadj[-1]) != self._num_arcs:
            raise StoreError(
                f"{self._dir}: xadj endpoints do not match the manifest "
                f"({int(self.xadj[0])}..{int(self.xadj[-1])} vs 0..{self._num_arcs})"
            )
        if np.any(np.diff(self.xadj) < 0):
            raise StoreError(f"{self._dir}: xadj must be non-decreasing")
        shard_starts = self.xadj[
            np.minimum(
                np.arange(len(shards), dtype=np.int64) * self._nodes_per_shard,
                self._num_nodes,
            )
        ]
        if not np.array_equal(shard_starts, self._arc_offsets[:-1]):
            raise StoreError(
                f"{self._dir}: xadj disagrees with the manifest's shard arc "
                "offsets"
            )

    @classmethod
    def open(
        cls,
        directory: str | Path,
        max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
    ) -> "MmapShardStore":
        """Open a shard directory, validating its manifest.  A residency
        bound that is not an integer >= 1 raises ``ValueError``."""
        check_integer("max_resident_shards", max_resident_shards)
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"no shard manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable shard manifest {manifest_path}: {exc}")
        if manifest.get("format") != FORMAT_NAME:
            raise StoreError(
                f"{manifest_path}: not a {FORMAT_NAME} manifest "
                f"(format={manifest.get('format')!r})"
            )
        if manifest.get("version") != FORMAT_VERSION:
            raise StoreError(
                f"{manifest_path}: unsupported format version "
                f"{manifest.get('version')!r} (supported: {FORMAT_VERSION})"
            )
        try:
            return cls(directory, manifest, max_resident_shards)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, StoreError):
                raise
            raise StoreError(f"malformed shard manifest {manifest_path}: {exc}")

    # -- basic facts ----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        return self._num_arcs

    @property
    def resident(self) -> bool:
        return False

    @property
    def chunk_nodes(self) -> int | None:
        return self._nodes_per_shard

    @property
    def num_shards(self) -> int:
        return len(self._shard_files)

    @property
    def resident_shards(self) -> int:
        """How many shards are currently mapped (bounded by the LRU)."""
        return len(self._mapped)

    def clamp_chunk(self, chunk: int) -> int:
        return align_chunk_to_span(chunk, self._nodes_per_shard)

    def stats(self) -> StoreStats:
        return self._stats

    # -- shard access ---------------------------------------------------
    def _load_array(self, rel: str, expect: int) -> np.ndarray:
        path = self._dir / rel
        try:
            arr = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store array {path}: {exc}")
        arr = np.ascontiguousarray(arr, dtype=_INDEX_DTYPE)
        if arr.ndim != 1 or arr.size != expect:
            raise StoreError(
                f"store array {path} has {arr.size} entries, expected {expect}"
            )
        return arr

    def _map_shard(self, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        mapped = self._mapped.get(index)
        if mapped is not None:
            self._stats.shard_hits += 1
            self._mapped.move_to_end(index)
            return mapped
        self._stats.shard_misses += 1
        expect, adjncy_path, adjwgt_path = self._shard_files[index]
        adjncy = self._mmap_file(adjncy_path, expect)
        adjwgt = (
            self._mmap_file(adjwgt_path, expect) if adjwgt_path is not None else None
        )
        while len(self._mapped) >= self._max_resident:
            self._mapped.popitem(last=False)
            self._stats.shard_evictions += 1
        self._mapped[index] = (adjncy, adjwgt)
        return adjncy, adjwgt

    def _mmap_file(self, path: str, expect: int) -> np.ndarray:
        """Map ``path`` read-only as ``expect`` int64 after its ``.npy`` header.

        The first map of a file parses its header and keeps the bytes;
        every later map re-reads and compares them, and maps exactly
        header + ``8 * expect`` bytes, which fails on a shorter file.
        """
        header = self._headers.get(path)
        try:
            with open(path, "rb", buffering=0) as handle:
                if header is None:
                    header = self._read_header(handle, path, expect)
                elif handle.read(len(header)) != header:
                    raise StoreError(
                        f"shard file {path} changed since it was first mapped "
                        "(header differs: re-saved shard?)"
                    )
                length = len(header) + 8 * expect
                try:
                    buf = mmap.mmap(handle.fileno(), length, access=mmap.ACCESS_READ)
                except ValueError:
                    raise StoreError(
                        f"shard file {path} is shorter than the {length} bytes "
                        "its header promises (truncated shard?)"
                    ) from None
        except OSError as exc:
            raise StoreError(f"unreadable shard file {path}: {exc}") from None
        return np.frombuffer(buf, dtype=_INDEX_DTYPE, count=expect, offset=len(header))

    def _read_header(self, handle, path: str, expect: int) -> bytes:
        """Parse the header of a file not mapped before; refuse anything but
        a 1-D, C-order, native int64 array of ``expect`` entries."""
        try:
            version = npy_format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = npy_format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = npy_format.read_array_header_2_0(handle)
            else:
                raise ValueError(f".npy format version {version} is not supported")
        except ValueError as exc:
            raise StoreError(f"unreadable shard file {path}: {exc}") from None
        if shape != (expect,) or fortran or dtype != _INDEX_DTYPE:
            raise StoreError(
                f"shard file {path} holds {shape} x {dtype}"
                f"{' (Fortran order)' if fortran else ''}, expected "
                f"({expect},) x int64 (truncated or swapped shard?)"
            )
        size = handle.tell()
        handle.seek(0)
        header = handle.read(size)
        self._headers[path] = header
        return header

    def _unit_weights(self, size: int) -> np.ndarray:
        """``size`` weights of an unweighted shard: a read-only prefix of
        one cached block, so every phase over a shard does not refill it."""
        if self._ones.size < size:
            self._ones = readonly_view(np.ones(size, dtype=_WEIGHT_DTYPE))
        return self._ones[:size]

    def arc_block(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency/weight arrays for the arc range ``[start, end)``.

        Within one shard the returned arrays are zero-copy, read-only
        views into the mapping, valid until the shard is evicted (i.e.
        until ``max_resident_shards`` other shards have been touched); a
        range crossing shards is concatenated into fresh arrays.
        """
        start, end = int(start), int(end)
        if not 0 <= start <= end <= self._num_arcs:
            raise StoreError(
                f"arc_block [{start}, {end}) outside [0, {self._num_arcs})"
            )
        self._stats.gathers += 1
        self._stats.arcs_read += end - start
        if start == end:
            empty = np.empty(0, dtype=_INDEX_DTYPE)
            return empty, empty.copy()
        first = int(np.searchsorted(self._arc_offsets, start, side="right")) - 1
        last = int(np.searchsorted(self._arc_offsets, end - 1, side="right")) - 1
        if first == last:
            base = int(self._arc_offsets[first])
            adjncy, adjwgt = self._map_shard(first)
            nbr = adjncy[start - base : end - base]
            if adjwgt is None:
                return nbr, self._unit_weights(nbr.size)
            return nbr, adjwgt[start - base : end - base]
        nbr_parts: list[np.ndarray] = []
        wgt_parts: list[np.ndarray] = []
        for index in range(first, last + 1):
            lo = max(start, int(self._arc_offsets[index]))
            hi = min(end, int(self._arc_offsets[index + 1]))
            base = int(self._arc_offsets[index])
            adjncy, adjwgt = self._map_shard(index)
            nbr_parts.append(np.asarray(adjncy[lo - base : hi - base]))
            if adjwgt is None:
                wgt_parts.append(self._unit_weights(hi - lo))
            else:
                wgt_parts.append(np.asarray(adjwgt[lo - base : hi - base]))
        return np.concatenate(nbr_parts), np.concatenate(wgt_parts)

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Read every shard into two fresh in-RAM arc arrays (O(m) memory)."""
        return self.arc_block(0, self._num_arcs)

    def close(self) -> None:
        self._mapped.clear()
