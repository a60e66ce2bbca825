"""Distributed graph: contiguous node ranges, ghost nodes, ID translation.

This mirrors the paper's parallel graph data structure (Section IV-A):

* each PE owns a *contiguous* range of global node ids
  ``vtxdist[p] .. vtxdist[p+1]`` and stores the adjacency arrays of those
  nodes;
* endpoints of edges leaving the range are *ghost* (halo) nodes: they get
  local ids after the owned nodes, in ascending global id, and their
  global ids are kept in a side array (the paper translates ghost global
  ids back through a hash table; the level build needs no lookup, and
  :meth:`DistGraph.to_local` binary-searches the sorted side array);
* for each ghost node the owning PE is stored for O(1) lookup.

The structure also holds the *send lists* the halo exchange needs: for
every other PE ``q``, the owned nodes that ``q`` has as ghosts — exactly
the interface nodes with a neighbour owned by ``q`` — plus the reverse
CSR from ghosts to their owned neighbours, which every label propagation
on the level reads.  All of it comes from one compiled pass per level
(:func:`repro.native.ghost_layout`: a counting sort over the global id
range, no comparison sort and no hash table) and is stored as fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from ..graph.build import group_arcs
from ..graph.csr import Graph
from ..graph.store import readonly_view
from .comm import SimComm

__all__ = ["DistGraph", "balanced_vtxdist"]


def balanced_vtxdist(num_nodes: int, num_parts: int) -> np.ndarray:
    """Contiguous near-equal node ranges: ``vtxdist`` of length ``P + 1``."""
    counts = np.full(num_parts, num_nodes // num_parts, dtype=np.int64)
    counts[: num_nodes % num_parts] += 1
    out = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass
class DistGraph:
    """One PE's share of a distributed graph.

    Local ids ``0 .. n_local-1`` are the owned nodes (global id minus
    ``first``); ids ``n_local .. n_local+n_ghost-1`` are ghosts in
    ascending global-id order.
    """

    rank: int
    vtxdist: np.ndarray
    xadj: np.ndarray  # local CSR over owned nodes (n_local + 1)
    adjncy: np.ndarray  # *local* ids (owned or ghost)
    adjwgt: np.ndarray
    vwgt: np.ndarray  # owned nodes only (n_local)
    ghost_global: np.ndarray  # sorted global ids of ghosts
    ghost_owner: np.ndarray  # owning rank per ghost
    send_ranks: np.ndarray  # adjacent PEs we must send interface values to
    send_nodes: list[np.ndarray]  # per adjacent PE: owned local ids it ghosts
    recv_ghosts: list[np.ndarray]  # per adjacent PE: ghost local ids it owns
    # reverse CSR, ghost slot g (local id minus n_local) -> the owned nodes
    # with an arc to it: ghost_src[ghost_xadj[g]:ghost_xadj[g + 1]]
    ghost_xadj: np.ndarray
    ghost_src: np.ndarray

    def __post_init__(self) -> None:
        # Same rule as the global graph's store: CSR buffers refuse writes.
        for name in ("xadj", "adjncy", "adjwgt", "vwgt", "ghost_xadj",
                     "ghost_src"):
            setattr(self, name, readonly_view(getattr(self, name)))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _with_ghosts(
        cls,
        vtxdist: np.ndarray,
        rank: int,
        xadj: np.ndarray,
        dst_global: np.ndarray,
        adjwgt: np.ndarray,
        vwgt: np.ndarray,
    ) -> "DistGraph":
        """Number the ghosts of a local CSR whose arc targets are global ids
        (:func:`repro.native.ghost_layout`).

        Ghosts get local ids after the owned nodes in ascending global-id
        order; the send lists are the owned endpoints of cross arcs,
        grouped by the owner of the ghost endpoint.
        """
        layout = native.ghost_layout(
            vtxdist, rank, np.ascontiguousarray(xadj, dtype=np.int64),
            np.ascontiguousarray(dst_global, dtype=np.int64))
        n_local = xadj.size - 1
        send_ranks = np.flatnonzero(np.diff(layout.ghost_start))
        return cls(
            rank=rank,
            vtxdist=vtxdist,
            xadj=xadj,
            adjncy=layout.adjncy,
            adjwgt=adjwgt,
            vwgt=vwgt,
            ghost_global=layout.ghost_global,
            ghost_owner=layout.ghost_owner,
            send_ranks=send_ranks,
            send_nodes=[
                layout.send_nodes[layout.send_start[q] : layout.send_start[q + 1]]
                for q in send_ranks
            ],
            recv_ghosts=[
                np.arange(layout.ghost_start[q], layout.ghost_start[q + 1]) + n_local
                for q in send_ranks
            ],
            ghost_xadj=layout.ghost_xadj,
            ghost_src=layout.ghost_src,
        )

    @classmethod
    def from_global(cls, graph: Graph, vtxdist: np.ndarray, rank: int) -> "DistGraph":
        """Slice one PE's subgraph out of a (shared) global graph.

        In a real MPI code this would be the result of a parallel file
        read or a scatter; the simulation shares the input graph, so each
        rank slices directly.
        """
        vtxdist = np.ascontiguousarray(vtxdist, dtype=np.int64)
        first, last = int(vtxdist[rank]), int(vtxdist[rank + 1])
        lo, hi = int(graph.xadj[first]), int(graph.xadj[last])
        return cls._with_ghosts(
            vtxdist,
            rank,
            (graph.xadj[first : last + 1] - lo).astype(np.int64),
            graph.adjncy[lo:hi],
            graph.adjwgt[lo:hi].copy(),
            graph.vwgt[first:last].copy(),
        )

    @classmethod
    def from_arcs(
        cls,
        vtxdist: np.ndarray,
        rank: int,
        src_global: np.ndarray,
        dst_global: np.ndarray,
        weights: np.ndarray,
        vwgt: np.ndarray,
    ) -> "DistGraph":
        """Build a PE's subgraph from its arc list (global endpoint ids).

        Used by the parallel contraction algorithm: after the shuffle,
        each PE holds all arcs whose source it owns, as parallel arrays,
        with the parallel arcs several PEs sent still apart; they are
        merged here by summing their weights.  ``vwgt`` covers the owned
        range in order.
        """
        vtxdist = np.ascontiguousarray(vtxdist, dtype=np.int64)
        first, last = int(vtxdist[rank]), int(vtxdist[rank + 1])
        xadj, dst, wgt = group_arcs(int(vtxdist[-1]), src_global, dst_global, weights)
        if xadj[first] != 0 or xadj[last] != dst.size:
            raise ValueError(f"an arc's source is not owned by rank {rank}")
        return cls._with_ghosts(
            vtxdist, rank, xadj[first : last + 1], dst, wgt,
            np.asarray(vwgt, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def first(self) -> int:
        """First owned global node id."""
        return int(self.vtxdist[self.rank])

    @property
    def n_local(self) -> int:
        return int(self.xadj.size - 1)

    @property
    def n_ghost(self) -> int:
        return int(self.ghost_global.size)

    @property
    def n_total(self) -> int:
        """Owned plus ghost nodes — the length of per-node value arrays."""
        return self.n_local + self.n_ghost

    @property
    def n_global(self) -> int:
        return int(self.vtxdist[-1])

    @property
    def num_arcs(self) -> int:
        return int(self.adjncy.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    # ------------------------------------------------------------------
    # Id translation
    # ------------------------------------------------------------------
    def owner_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Owning rank of each global node id (vectorised)."""
        return (np.searchsorted(self.vtxdist, global_ids, side="right") - 1).astype(np.int64)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Translate local ids (owned or ghost) to global ids."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        out = local_ids + self.first
        ghost = local_ids >= self.n_local
        if ghost.any():
            out = out.copy()
            out[ghost] = self.ghost_global[local_ids[ghost] - self.n_local]
        return out

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Translate global ids to local ids (owned or known ghosts).

        Raises ``KeyError`` naming the first id that is neither owned nor
        a ghost here.
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        out = np.empty_like(global_ids)
        owned = (global_ids >= self.first) & (global_ids < self.first + self.n_local)
        out[owned] = global_ids[owned] - self.first
        rest = global_ids[~owned]
        idx = np.searchsorted(self.ghost_global, rest)
        known = idx < self.n_ghost
        known[known] = self.ghost_global[idx[known]] == rest[known]
        if not known.all():
            raise KeyError(
                f"global id {rest[~known][0]} is neither owned nor ghosted on "
                f"rank {self.rank}")
        out[~owned] = idx + self.n_local
        return out

    def local_view(self, global_values: np.ndarray) -> np.ndarray:
        """The owned and ghost entries (length ``n_total``) of a per-node
        array that every PE holds whole: a halo exchange with no message."""
        values = np.asarray(global_values)
        return np.concatenate((values[self.first : self.first + self.n_local],
                               values[self.ghost_global]))

    # ------------------------------------------------------------------
    # Neighbourhood access
    # ------------------------------------------------------------------
    def neighbors(self, v_local: int) -> np.ndarray:
        """Local-id neighbours of an owned node."""
        return self.adjncy[self.xadj[v_local] : self.xadj[v_local + 1]]

    def incident_weights(self, v_local: int) -> np.ndarray:
        return self.adjwgt[self.xadj[v_local] : self.xadj[v_local + 1]]

    def arc_sources(self) -> np.ndarray:
        """Local source node of every stored arc."""
        return np.repeat(np.arange(self.n_local, dtype=np.int64), self.degrees)

    # ------------------------------------------------------------------
    # Halo exchange
    # ------------------------------------------------------------------
    def halo_exchange(self, comm: SimComm, values: np.ndarray) -> None:
        """Refresh the ghost entries of a length-``n_total`` value array.

        Each PE sends the current values of the owned nodes its neighbours
        ghost; receives are scattered into the ghost slots *in place*.
        """
        per_dest: list[np.ndarray | None] = [None] * comm.size
        for q, nodes in zip(self.send_ranks.tolist(), self.send_nodes):
            per_dest[q] = values[nodes]
        received = comm.alltoall(per_dest, tag="halo")
        for q, ghosts in zip(self.send_ranks.tolist(), self.recv_ghosts):
            payload = received[q]
            if payload is not None:
                values[ghosts] = payload

    def gather_global(self, comm: SimComm, values: np.ndarray) -> np.ndarray:
        """Allgather owned values into a full global array (collect step)."""
        pieces = comm.allgather(np.asarray(values[: self.n_local]))
        return np.concatenate(pieces)
