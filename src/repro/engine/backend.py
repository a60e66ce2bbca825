"""Execution backends: the substrate abstraction under the SCLP engine.

The SCLP driver (:mod:`repro.engine.sclp`) is written once against the
:class:`ExecutionBackend` protocol (the V-cycle driver has its own,
:class:`repro.engine.vcycle.VcycleBackend`); the two implementations
bind it to the two substrates the paper contrasts:

* :class:`LocalBackend` — a NumPy CSR :class:`~repro.graph.csr.Graph` in
  one address space.  Every "communication" hook degenerates to the
  p = 1 identity: the halo exchange is a no-op, block-weight reduction
  is a ``bincount``, convergence is the move count.
* :class:`SpmdBackend` — a :class:`~repro.dist.dgraph.DistGraph` under a
  communicator: ghost CSR with halo exchange, delta interface-label
  exchange, allreduce block weights and move counts, and simulated-time
  work accounting.
  The communicator is a :class:`~repro.dist.comm.SimComm` whether the
  ranks are threads or OS processes.

Every backend method that communicates is *collective over the backend's
communicator*: the driver calls them unconditionally on every rank, so
the common collective order the runtime's hub relies on is preserved by
construction.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..graph.csr import Graph
from ..graph.store import GraphStore

__all__ = [
    "ExecutionBackend",
    "LocalBackend",
    "SpmdBackend",
    "exchange_interface_labels",
    "resolve_backend",
    "BACKENDS",
]

#: the launchers of a parallel run (``num_pes == 1`` needs none: it is
#: the sequential algorithm, labelled ``backend: local`` in run.json)
BACKENDS = ("spmd", "process")


def resolve_backend(explicit: str | None = None) -> str:
    """``explicit`` if it names a launcher, ``'spmd'`` for ``None``.

    Anything else raises: a typo must not select a different substrate.
    """
    if explicit is None:
        return "spmd"
    if explicit not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {explicit!r}")
    return explicit


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the SCLP driver needs from an execution substrate.

    Array attributes describe the *local* subgraph (for the local backend
    that is the whole graph): CSR arrays over ``n_total`` node slots, of
    which the first ``n_local`` are owned and the rest are ghosts.  The
    arcs of an out-of-core graph are not in RAM: there ``store`` serves
    them block by block and ``adjncy``/``adjwgt`` are ``None``.
    """

    xadj: np.ndarray
    adjncy: np.ndarray | None
    adjwgt: np.ndarray | None
    degrees: np.ndarray
    n_local: int
    n_total: int
    size: int  # number of PEs sharing the budget (1 for local)
    tie_base: int  # local-to-global node id offset (hash tie-breaking)
    rng: np.random.Generator
    store: GraphStore | None  # serves the arcs when they are not resident

    def node_weights(self) -> np.ndarray: ...
    def label_space(self, labels: np.ndarray) -> int: ...
    def work(self, units: int) -> None: ...
    def exchange_labels(
        self, labels: np.ndarray, changed_mask: np.ndarray, delta: bool
    ) -> tuple[np.ndarray, np.ndarray]: ...
    def ghost_change_sources(self, ghost_idx: np.ndarray) -> np.ndarray: ...
    def reduce_block_weights(self, labels: np.ndarray, k: int) -> np.ndarray: ...
    def global_changed(self, moved: int) -> int: ...
    def span_kwargs(self) -> dict: ...


_EMPTY = np.empty(0, dtype=np.int64)


class LocalBackend:
    """Single-address-space backend: the p = 1 degeneration of the SPMD hooks."""

    size = 1
    tie_base = 0

    def __init__(self, graph: Graph, rng: np.random.Generator):
        self.graph = graph
        self.rng = rng
        self.xadj = graph.xadj
        # An out-of-core store keeps its arcs on disk: the phase kernel
        # reads them a shard segment at a time, never as O(m) arrays.
        self.store = None if graph.resident else graph.store
        self.adjncy = graph.adjncy if graph.resident else None
        self.adjwgt = graph.adjwgt if graph.resident else None
        self.degrees = graph.degrees
        self.n_local = graph.num_nodes
        self.n_total = graph.num_nodes

    def node_weights(self) -> np.ndarray:
        return np.asarray(self.graph.vwgt, dtype=np.int64)

    def label_space(self, labels: np.ndarray) -> int:
        return int(labels.max(initial=0)) + 1

    def work(self, units: int) -> None:
        pass

    def exchange_labels(
        self, labels: np.ndarray, changed_mask: np.ndarray, delta: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        return _EMPTY, _EMPTY

    def ghost_change_sources(self, ghost_idx: np.ndarray) -> np.ndarray:
        return _EMPTY

    def reduce_block_weights(self, labels: np.ndarray, k: int) -> np.ndarray:
        return np.bincount(
            labels[: self.n_local], weights=self.graph.vwgt, minlength=k
        ).astype(np.int64)

    def global_changed(self, moved: int) -> int:
        return moved

    def span_kwargs(self) -> dict:
        return {}


class SpmdBackend:
    """Distributed-memory backend over ``DistGraph`` + a communicator."""

    # DistGraph slices are in-RAM (possibly shared-memory) arrays.
    store = None

    def __init__(self, dgraph, comm):
        self.dgraph = dgraph
        self.comm = comm
        self.rng = comm.rng
        self.size = comm.size
        self.tie_base = int(dgraph.first)
        self.xadj = dgraph.xadj
        self.adjncy = dgraph.adjncy
        self.adjwgt = dgraph.adjwgt
        self.degrees = dgraph.degrees
        self.n_local = dgraph.n_local
        self.n_total = dgraph.n_total

    def node_weights(self) -> np.ndarray:
        vwgt_all = np.zeros(self.n_total, dtype=np.int64)
        vwgt_all[: self.n_local] = self.dgraph.vwgt
        self.dgraph.halo_exchange(self.comm, vwgt_all)
        return vwgt_all

    def label_space(self, labels: np.ndarray) -> int:
        # Cluster ids are global fine node ids; entries of clusters never
        # seen locally stay 0, like the missing keys of a sparse view.
        return max(int(self.dgraph.n_global), int(labels.max(initial=0)) + 1)

    def work(self, units: int) -> None:
        self.comm.work(units)

    def exchange_labels(
        self, labels: np.ndarray, changed_mask: np.ndarray, delta: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        return exchange_interface_labels(
            self.dgraph, self.comm, labels, changed_mask, delta
        )

    def ghost_change_sources(self, ghost_idx: np.ndarray) -> np.ndarray:
        from .kernels import gather_neighbors

        return gather_neighbors(
            ghost_idx - self.n_local, self.dgraph.ghost_xadj, self.dgraph.ghost_src)

    def reduce_block_weights(self, labels: np.ndarray, k: int) -> np.ndarray:
        local = np.bincount(
            labels[: self.n_local], weights=self.dgraph.vwgt, minlength=k
        ).astype(np.int64)
        return self.comm.allreduce(local)

    def global_changed(self, moved: int) -> int:
        return int(self.comm.allreduce(int(moved)))

    def span_kwargs(self) -> dict:
        return {"comm": self.comm}


def exchange_interface_labels(
    dgraph,
    comm,
    labels: np.ndarray,
    changed_mask: np.ndarray,
    delta: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Ship changed interface labels to adjacent PEs; validate and locate.

    Returns ``(ghost_idx, values)``: the local ghost slots the received
    updates belong to and their new labels, so callers can fold them into
    whatever weight view they maintain.

    Both wire encodings are *positional*: ``send_nodes[q]`` on the
    sender and ``recv_ghosts`` for ``q`` on the receiver list the same
    interface nodes in the same (ascending global id) order, the
    symmetry :meth:`DistGraph.halo_exchange` already relies on.  With
    ``delta`` (the default) each destination gets ``(positions: int32,
    labels: int64)`` pairs for the changed labels — 12 bytes per change
    instead of 16 for explicit global ids — unless a dense 8-bytes-per-
    interface-node label array is smaller (early iterations, where most
    labels change).  Received positions are validated against the shared
    interface size; an out-of-range position or a mis-sized dense
    payload raises, naming the sender, instead of silently corrupting a
    neighbouring ghost slot.
    """
    per_dest: list[object] = [None] * comm.size
    for q, nodes in zip(dgraph.send_ranks.tolist(), dgraph.send_nodes):
        if delta:
            pos = np.flatnonzero(changed_mask[nodes])
            if pos.size * 12 < nodes.size * 8:
                per_dest[q] = (pos.astype(np.int32), labels[nodes[pos]])
                continue
        per_dest[q] = labels[nodes]
    received = comm.alltoall(per_dest, tag="lp.labels")
    ghosts_from = {
        q: g for q, g in zip(dgraph.send_ranks.tolist(), dgraph.recv_ghosts)
    }
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for src, payload in enumerate(received):
        if payload is None:
            continue
        ghosts = ghosts_from.get(src)
        if ghosts is None:
            raise ValueError(
                f"rank {comm.rank} received an interface label payload from "
                f"rank {src}, with which it shares no interface"
            )
        if isinstance(payload, tuple):
            pos, values = payload
            if pos.size == 0:
                continue
            pos = pos.astype(np.int64)
            if int(pos.max()) >= ghosts.size or int(pos.min()) < 0:
                raise ValueError(
                    f"rank {comm.rank} received a delta interface label from "
                    f"rank {src} at position {int(pos.max())}, outside the "
                    f"{ghosts.size}-entry interface shared with that rank "
                    "(inconsistent send lists or a label update for a "
                    "non-interface node)"
                )
            idx_parts.append(ghosts[pos])
            val_parts.append(np.asarray(values, dtype=np.int64))
        else:
            values = np.asarray(payload, dtype=np.int64)
            if values.size != ghosts.size:
                raise ValueError(
                    f"rank {comm.rank} received a dense interface payload of "
                    f"{values.size} labels from rank {src}, which does not "
                    f"match the {ghosts.size}-entry interface shared with "
                    "that rank (inconsistent send lists or a label update "
                    "for a non-interface node)"
                )
            idx_parts.append(ghosts)
            val_parts.append(values)
    if not idx_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(idx_parts), np.concatenate(val_parts)
