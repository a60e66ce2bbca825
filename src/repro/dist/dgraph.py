"""Distributed graph: contiguous node ranges, ghost nodes, ID translation.

This mirrors the paper's parallel graph data structure (Section IV-A):

* each PE owns a *contiguous* range of global node ids
  ``vtxdist[p] .. vtxdist[p+1]`` and stores the adjacency arrays of those
  nodes;
* endpoints of edges leaving the range are *ghost* (halo) nodes: they get
  local ids after the owned nodes, their global ids are kept in a side
  array, and a lookup structure translates ghost global ids back to local
  ids (the paper uses a hash table; we use a sorted array +
  ``searchsorted``, which is the vectorised equivalent);
* for each ghost node the owning PE is stored for O(1) lookup.

The structure also precomputes the *send lists* the halo exchange needs:
for every other PE ``q``, the owned nodes that ``q`` has as ghosts —
exactly the interface nodes with a neighbour owned by ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __post_init__(self) -> None:
        # Same rule as the global graph's store: CSR buffers refuse writes.
        for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
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
        """Number the ghosts of a local CSR whose arc targets are global ids.

        Ghosts get local ids after the owned nodes in ascending global-id
        order; the send lists are the owned endpoints of cross arcs,
        grouped by the owner of the ghost endpoint.
        """
        first, last = int(vtxdist[rank]), int(vtxdist[rank + 1])
        n_local = last - first

        local_mask = (dst_global >= first) & (dst_global < last)
        cross = ~local_mask
        ghost_global = np.unique(dst_global[cross])
        adjncy = np.empty_like(dst_global)
        adjncy[local_mask] = dst_global[local_mask] - first
        adjncy[cross] = n_local + np.searchsorted(ghost_global, dst_global[cross])
        ghost_owner = (np.searchsorted(vtxdist, ghost_global, side="right") - 1).astype(np.int64)

        src = np.repeat(np.arange(n_local, dtype=np.int64), np.diff(xadj))
        pair_owner = ghost_owner[adjncy[cross] - n_local]
        pair_src = src[cross]
        send_ranks = np.unique(pair_owner)
        return cls(
            rank=rank,
            vtxdist=vtxdist,
            xadj=xadj,
            adjncy=adjncy,
            adjwgt=adjwgt,
            vwgt=vwgt,
            ghost_global=ghost_global,
            ghost_owner=ghost_owner,
            send_ranks=send_ranks,
            send_nodes=[np.unique(pair_src[pair_owner == q]) for q in send_ranks],
            recv_ghosts=[np.flatnonzero(ghost_owner == q) + n_local for q in send_ranks],
        )

    @classmethod
    def from_global(cls, graph: Graph, vtxdist: np.ndarray, rank: int) -> "DistGraph":
        """Slice one PE's subgraph out of a (shared) global graph.

        In a real MPI code this would be the result of a parallel file
        read or a scatter; the simulation shares the input graph, so each
        rank slices directly.
        """
        vtxdist = np.asarray(vtxdist, dtype=np.int64)
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
        vtxdist = np.asarray(vtxdist, dtype=np.int64)
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

        Raises ``KeyError`` if an id is neither owned nor a ghost here.
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        out = np.empty_like(global_ids)
        owned = (global_ids >= self.first) & (global_ids < self.first + self.n_local)
        out[owned] = global_ids[owned] - self.first
        rest = ~owned
        if rest.any():
            idx = np.searchsorted(self.ghost_global, global_ids[rest])
            bad = (idx >= self.n_ghost) | (
                self.ghost_global[np.minimum(idx, max(self.n_ghost - 1, 0))]
                != global_ids[rest]
            )
            if self.n_ghost == 0 or bad.any():
                raise KeyError("global id is neither owned nor ghosted on this PE")
            out[rest] = idx + self.n_local
        return out

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

    def interface_mask(self) -> np.ndarray:
        """Boolean mask over owned nodes: has at least one ghost neighbour."""
        mask = np.zeros(self.n_local, dtype=bool)
        ghost_arcs = self.adjncy >= self.n_local
        if ghost_arcs.any():
            mask[self.arc_sources()[ghost_arcs]] = True
        return mask

    def ghost_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """Reverse CSR: ghost slot -> owned nodes with an arc to that ghost.

        Returns ``(gxadj, gsrc)`` with the owned sources of ghost slot
        ``g`` (0-based, i.e. local id minus ``n_local``) at
        ``gsrc[gxadj[g]:gxadj[g + 1]]``.  The frontier LP engine uses it
        to activate the local neighbours of ghosts whose labels changed.
        Built lazily from the adjacency on first use and cached (the
        arrays are immutable per level).
        """
        cached = self.__dict__.get("_ghost_sources_cache")
        if cached is not None:
            return cached
        ghost_arcs = self.adjncy >= self.n_local
        slots = self.adjncy[ghost_arcs] - self.n_local
        srcs = self.arc_sources()[ghost_arcs]
        order = np.argsort(slots, kind="stable")
        gxadj = np.zeros(self.n_ghost + 1, dtype=np.int64)
        np.cumsum(np.bincount(slots, minlength=self.n_ghost), out=gxadj[1:])
        cached = (gxadj, srcs[order])
        self.__dict__["_ghost_sources_cache"] = cached
        return cached

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
