"""Compressed-sparse-row graph data structure.

This module provides :class:`Graph`, the central immutable graph type used
throughout the library.  It mirrors the adjacency-array representation the
paper uses (one array of edge targets and one array of per-node head
pointers, Section IV-A) and keeps node and edge weights in parallel NumPy
arrays so that the O(n + m) kernels (label propagation, contraction,
matching) can run as vectorised array programs instead of per-edge Python
loops.

A :class:`Graph` does not own its arrays directly: it holds a
:class:`~repro.graph.store.GraphStore` that serves them.  The default
:class:`~repro.graph.store.InMemoryStore` makes ``graph.xadj`` etc. the
same zero-copy arrays as before; an out-of-core store (see
:mod:`repro.graph.store`) keeps only the O(n) arrays in RAM and streams
arc blocks from disk.  Accessing ``graph.adjncy``/``graph.adjwgt`` on
such a graph *materializes* the arc arrays (O(m) memory) — memory-bound
code paths use :meth:`Graph.arc_block` instead.

Conventions
-----------
* Graphs are *undirected*: every edge ``{u, v}`` is stored twice, once in
  each endpoint's adjacency list.  ``num_edges`` counts undirected edges,
  ``num_arcs = 2 * num_edges`` counts stored directed arcs.
* Self-loops are not allowed (the multilevel scheme drops them during
  contraction, exactly as the paper's quotient-graph definition does).
* Node and edge weights are 64-bit integers.  The contraction scheme sums
  weights, so integer arithmetic keeps cut values exact across the whole
  multilevel hierarchy.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Graph", "GraphError"]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.int64


class GraphError(ValueError):
    """Raised when graph arrays are structurally invalid."""


class Graph:
    """An undirected weighted graph in CSR (adjacency array) form.

    Attributes
    ----------
    xadj:
        Head-pointer array of length ``n + 1``; the neighbours of node
        ``v`` are ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        Concatenated adjacency lists (length ``2m``).
    vwgt:
        Node weights, length ``n``.
    adjwgt:
        Edge weights parallel to ``adjncy`` (the weight of arc
        ``(v, adjncy[i])`` is ``adjwgt[i]``; both stored copies of an
        undirected edge carry the same weight).
    """

    __slots__ = ("_store", "name", "_arc_cache")

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        vwgt: np.ndarray,
        adjwgt: np.ndarray,
        name: str = "graph",
    ) -> None:
        from .store import InMemoryStore

        self._store = InMemoryStore(xadj, adjncy, vwgt, adjwgt, name=name)
        self.name = name
        self._arc_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        vwgt: np.ndarray | None = None,
        adjwgt: np.ndarray | None = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from raw CSR arrays, defaulting to unit weights."""
        xadj = np.asarray(xadj, dtype=_INDEX_DTYPE)
        adjncy = np.asarray(adjncy, dtype=_INDEX_DTYPE)
        n = xadj.size - 1
        if vwgt is None:
            vwgt = np.ones(n, dtype=_WEIGHT_DTYPE)
        if adjwgt is None:
            adjwgt = np.ones(adjncy.size, dtype=_WEIGHT_DTYPE)
        return cls(xadj, adjncy, vwgt, adjwgt, name=name)

    @classmethod
    def from_store(cls, store, name: str | None = None) -> "Graph":
        """Wrap a :class:`~repro.graph.store.GraphStore` without copying."""
        graph = cls.__new__(cls)
        graph._store = store
        graph.name = store.name if name is None else name
        graph._arc_cache = None
        return graph

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The :class:`~repro.graph.store.GraphStore` serving this graph."""
        return self._store

    @property
    def resident(self) -> bool:
        """Whether the arc arrays are RAM-resident (whole-array access is free)."""
        return bool(self._store.resident)

    def arc_block(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """``(adjncy[start:end], adjwgt[start:end])`` served by the store.

        This is the O(1)-memory access path for out-of-core graphs: only
        the shards covering ``[start, end)`` are touched.
        """
        return self._store.arc_block(start, end)

    def materialized(self) -> "Graph":
        """This graph with all four CSR arrays in RAM (self when resident)."""
        if self._store.resident:
            return self
        adjncy, adjwgt = self._materialized_arcs()
        return Graph(self.xadj, adjncy, self.vwgt, adjwgt, name=self.name)

    def _materialized_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arc_cache is None:
            self._arc_cache = self._store.materialize()
        return self._arc_cache

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    @property
    def xadj(self) -> np.ndarray:
        return self._store.xadj

    @property
    def vwgt(self) -> np.ndarray:
        return self._store.vwgt

    @property
    def adjncy(self) -> np.ndarray:
        """Arc targets; materializes the arc arrays for out-of-core stores."""
        return self._materialized_arcs()[0]

    @property
    def adjwgt(self) -> np.ndarray:
        """Arc weights; materializes the arc arrays for out-of-core stores."""
        return self._materialized_arcs()[1]

    # ------------------------------------------------------------------
    # Size properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self._store.num_nodes)

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2m`` for a symmetric graph)."""
        return int(self._store.num_arcs)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self.num_arcs // 2

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted node degrees (length ``n``)."""
        return np.diff(self.xadj)

    @property
    def total_node_weight(self) -> int:
        """``c(V)`` — the sum of all node weights."""
        return int(self.vwgt.sum())

    @property
    def total_edge_weight(self) -> int:
        """``omega(E)`` — the sum of all undirected edge weights."""
        if self._store.resident:
            return int(self.adjwgt.sum()) // 2
        total = 0
        for start, end in self._store_blocks():
            total += int(self.arc_block(start, end)[1].sum())
        return total // 2

    def _store_blocks(self) -> Iterator[tuple[int, int]]:
        """Arc ranges aligned to the store's shard layout (whole range if none)."""
        span = self._store.chunk_nodes
        if span is None:
            yield 0, self.num_arcs
            return
        xadj = self.xadj
        for lo in range(0, self.num_nodes, span):
            hi = min(lo + span, self.num_nodes)
            yield int(xadj[lo]), int(xadj[hi])

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` as a zero-copy view into ``adjncy``."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def incident_weights(self, v: int) -> np.ndarray:
        """Weights of the arcs leaving ``v`` (parallel to :meth:`neighbors`)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Unweighted degree of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def weighted_degree(self, v: int) -> int:
        """Sum of the weights of the arcs leaving ``v``."""
        return int(self.incident_weights(v).sum())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        return bool(np.any(self.neighbors(u) == v))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``.

        Intended for tests and I/O, not for hot paths.
        """
        sources = self.arc_sources()
        for idx in range(self.num_arcs):
            u = int(sources[idx])
            v = int(self.adjncy[idx])
            if u < v:
                yield u, v, int(self.adjwgt[idx])

    def arc_sources(self) -> np.ndarray:
        """Source node of every stored arc (length ``2m``), vectorised."""
        return np.repeat(np.arange(self.num_nodes, dtype=_INDEX_DTYPE), self.degrees)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_weights(
        self, vwgt: np.ndarray | None = None, adjwgt: np.ndarray | None = None
    ) -> "Graph":
        """Copy of this graph with node and/or edge weights replaced."""
        return Graph(
            self.xadj,
            self.adjncy,
            self.vwgt if vwgt is None else np.asarray(vwgt, dtype=_WEIGHT_DTYPE),
            self.adjwgt if adjwgt is None else np.asarray(adjwgt, dtype=_WEIGHT_DTYPE),
            name=self.name,
        )

    def sorted_adjacency(self) -> "Graph":
        """Copy with every adjacency list sorted by neighbour id.

        Sorted lists make ``has_edge`` and comparisons deterministic; the
        partitioning kernels themselves do not require sorted lists.  The
        copy is canonical CSR, so parallel arcs are merged and self-loops
        dropped (a valid graph has neither).
        """
        from .build import group_arcs

        xadj, adjncy, adjwgt = group_arcs(
            self.num_nodes, self.arc_sources(), self.adjncy, self.adjwgt)
        return Graph(xadj, adjncy, self.vwgt, adjwgt, name=self.name)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(name={self.name!r}, n={self.num_nodes}, m={self.num_edges}, "
            f"c(V)={self.total_node_weight}, w(E)={self.total_edge_weight})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self.xadj, other.xadj)
            and np.array_equal(self.adjncy, other.adjncy)
            and np.array_equal(self.vwgt, other.vwgt)
            and np.array_equal(self.adjwgt, other.adjwgt)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_arcs, int(self.vwgt.sum()), int(self.adjwgt.sum())))

    def __getstate__(self) -> dict:
        """Pickle as plain in-RAM arrays (stores hold OS handles)."""
        return {
            "xadj": self.xadj,
            "adjncy": self.adjncy,
            "vwgt": self.vwgt,
            "adjwgt": self.adjwgt,
            "name": self.name,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["xadj"],
            state["adjncy"],
            state["vwgt"],
            state["adjwgt"],
            name=state["name"],
        )
