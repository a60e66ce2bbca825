"""Parallel contraction and uncoarsening (paper Section IV-C).

Contraction of a distributed clustering proceeds as in the paper, in
four collectives per level:

1. **Request.**  PE ``p`` is responsible for the cluster ids of its own
   node range ``vtxdist[p] .. vtxdist[p+1]``.  Every PE ships the
   distinct labels of all its node slots, ghosts included, to the
   responsible PEs (one alltoall); the responsible PE marks them in a
   table over its range, so duplicates fall out without a sort or a hash.
2. **Count.**  One allgather of the per-PE distinct counts gives each PE
   both the offset of its ids in the contiguous coarse range (the
   exclusive prefix sum) and the global coarse node count ``n'``.
3. **Remap.**  The responsible PEs answer each request with the coarse
   ids ``offset + rank among the marked ids`` (one alltoall); the
   composed map ``C: fine node -> coarse node in 0..n'-1`` then covers
   every slot, ghosts included, and needs no halo exchange.
4. **Shuffle.**  Every PE builds the weighted quotient of its local
   subgraph with the sequential quotient kernel
   (:func:`repro.graph.quotient.quotient_arcs`, over the local CSR
   extended by one empty row per ghost; the kernel reads every arc
   reversed, which the symmetry of the fine graph makes harmless, see
   :func:`_local_quotient`), sums its node weights per coarse node with
   one ``bincount``, and ships to each coarse owner, under the balanced
   coarse distribution, its arcs together with its node-weight
   contributions and constraint labels (one alltoall).  Receivers merge
   duplicate arcs and assemble their local CSR
   (:meth:`~repro.dist.dgraph.DistGraph.from_arcs`).

The precondition is a consistent label array: the ghost entries of
``labels`` are their owners' labels, which is what
:func:`~repro.engine.sclp.run_sclp` returns (its last phase ends with
the label exchange).  The coarse ids of the ghosts come from the remap
answers, not from their owners, so an inconsistent ghost would map to
the coarse node of its stale label.

Uncoarsening is the simple inverse (Section IV-C, last paragraph): each
PE asks the owner of each coarse representative for its block id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.quotient import quotient_arcs
from ..obsv.tracer import TRACER
from .comm import SimComm
from .dgraph import DistGraph, balanced_vtxdist

__all__ = ["DistContraction", "parallel_contract", "lookup_coarse_values"]


@dataclass
class DistContraction:
    """One parallel coarsening level, as seen by one PE."""

    fine: DistGraph
    coarse: DistGraph
    #: coarse global id of each fine node slot, owned then ghost
    coarse_of: np.ndarray
    #: coarse constraint labels for coarse local nodes (if tracked)
    coarse_constraint: np.ndarray | None

    @property
    def local_to_coarse(self) -> np.ndarray:
        """Coarse global id of each fine owned node."""
        return self.coarse_of[: self.fine.n_local]


def _owner_split(
    owners: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Destination bucketing in one pass: a stable argsort of ``owners``
    plus the per-destination slice bounds into the sorted order.

    ``sorted[bounds[q]:bounds[q + 1]]`` equals the elements owned by PE
    ``q`` in their original relative order — the same buckets ``p``
    boolean-mask scans would produce, without the ``O(p * n)`` rescans.
    """
    order = np.argsort(owners, kind="stable")
    bounds = np.searchsorted(owners, np.arange(size + 1), sorter=order)
    return order, bounds


def _exchange_by_owner(
    comm: SimComm, ids: np.ndarray, owners: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Ship each id to its owner; returns (received_per_source, send_order).

    ``send_order`` is the stable permutation that groups ``ids`` by
    destination; callers scatter per-owner answers back with
    ``result[send_order] = concatenate(answers)``.
    """
    order, bounds = _owner_split(owners, comm.size)
    shuffled = ids[order]
    per_dest: list[object] = [
        shuffled[bounds[q]: bounds[q + 1]] for q in range(comm.size)
    ]
    received = comm.alltoall(per_dest)
    return [np.asarray(r, dtype=np.int64) for r in received], order


def lookup_coarse_values(
    comm: SimComm,
    queries: np.ndarray,
    vtxdist: np.ndarray,
    local_values: np.ndarray,
) -> np.ndarray:
    """Distributed array lookup: ``result[i] = values[queries[i]]``.

    ``local_values`` holds each PE's slice of a conceptual global array
    distributed by ``vtxdist``.  One request round and one response round.
    """
    queries = np.asarray(queries, dtype=np.int64)
    owners = (np.searchsorted(vtxdist, queries, side="right") - 1).astype(np.int64)
    first = int(vtxdist[comm.rank])

    requests, send_order = _exchange_by_owner(comm, queries, owners)
    responses: list[object] = [None] * comm.size
    for q, req in enumerate(requests):
        responses[q] = local_values[req - first] if req.size else req
    answered = comm.alltoall(responses)

    result = np.empty(queries.size, dtype=local_values.dtype)
    result[send_order] = np.concatenate([np.asarray(a) for a in answered])
    return result


def parallel_contract(
    dgraph: DistGraph,
    comm: SimComm,
    labels: np.ndarray,
    constraint: np.ndarray | None = None,
) -> DistContraction:
    """Contract a clustering of a distributed graph, fully in parallel.

    ``labels`` is the length-``n_total`` cluster array produced by
    :meth:`~repro.dist.dist_partitioner.SpmdVcycleBackend.cluster` (cluster
    ids live in the global fine node id space).  ``constraint`` optionally
    carries a partition to the coarse level (V-cycles).
    """
    with TRACER.span("contract", comm=comm, fine_nodes=dgraph.n_global) as sp:
        contraction = _contract_impl(dgraph, comm, labels, constraint)
        sp.set(coarse_nodes=contraction.coarse.n_global)
        return contraction


def _contract_impl(
    dgraph: DistGraph,
    comm: SimComm,
    labels: np.ndarray,
    constraint: np.ndarray | None,
) -> DistContraction:
    n_local, size = dgraph.n_local, comm.size
    labels = np.asarray(labels, dtype=np.int64)
    local_labels = labels[:n_local]

    # ------------------------------------------------------------------
    # 1. Request the coarse id of every distinct label, ghosts' included
    # ------------------------------------------------------------------
    # One table over the fine id range: 1 marks a ghost's label, 2 an
    # owned node's; later it maps each asked label to its coarse id.
    table = np.zeros(dgraph.n_global, dtype=np.int64)
    table[labels[n_local:]] = 1
    table[local_labels] = 2
    asked = np.flatnonzero(table)  # ascending, so one slice per PE
    owned = table[asked] == 2
    bounds = np.searchsorted(asked, dgraph.vtxdist)
    requests = comm.alltoall([asked[bounds[q]: bounds[q + 1]] for q in range(size)])
    comm.work(n_local + int(np.count_nonzero(owned)))

    # ------------------------------------------------------------------
    # 2. Count the distinct ids of this PE's range: offset and n'
    # ------------------------------------------------------------------
    first = dgraph.first
    seen = np.zeros(n_local, dtype=bool)
    for req in requests:
        seen[req - first] = True
    counts = comm.allgather(int(np.count_nonzero(seen)))
    offset, n_coarse = sum(counts[: comm.rank]), sum(counts)

    # ------------------------------------------------------------------
    # 3. Answer with the prefix-sum remap; C over every slot
    # ------------------------------------------------------------------
    coarse_id = np.cumsum(seen, dtype=np.int64) + (offset - 1)
    answered = comm.alltoall([coarse_id[req - first] for req in requests])
    remap = np.concatenate(answered)  # the coarse id of each asked label
    table[asked] = remap
    coarse_of = table[labels]
    local_to_coarse = coarse_of[:n_local]

    # ------------------------------------------------------------------
    # 4. Local quotient and node weights, shuffled to the coarse owners
    # ------------------------------------------------------------------
    coarse_vtxdist = balanced_vtxdist(n_coarse, size)
    arcs = _local_quotient(dgraph, coarse_of, coarse_vtxdist)
    comm.work(dgraph.num_arcs)
    # The coarse ids of the owned nodes, ascending (the remap keeps the
    # label order), and the weight this PE contributes to each.
    node_ids = remap[owned]
    node_wgt = np.bincount(
        local_to_coarse, weights=dgraph.vwgt)[node_ids].astype(np.int64)
    columns = [node_ids, node_wgt]
    if constraint is not None:
        # All fine nodes of a coarse node share the constraint label
        # (clusters never span constraint blocks), so any representative
        # value works.
        held = np.zeros(n_coarse, dtype=np.int64)
        held[local_to_coarse] = np.asarray(constraint[:n_local], dtype=np.int64)
        columns.append(held[node_ids])
    node_bounds = np.searchsorted(node_ids, coarse_vtxdist)
    msgs = comm.alltoall([
        (*arcs[q], *(c[node_bounds[q]: node_bounds[q + 1]] for c in columns))
        for q in range(size)
    ])

    # ------------------------------------------------------------------
    # Assemble the local coarse subgraph
    # ------------------------------------------------------------------
    all_src, all_dst, all_wgt, got_ids, got_wgt, *got_cons = (
        np.concatenate(column) for column in zip(*msgs))
    my_first = int(coarse_vtxdist[comm.rank])
    my_count = int(coarse_vtxdist[comm.rank + 1]) - my_first
    coarse_vwgt = np.bincount(
        got_ids - my_first, weights=got_wgt, minlength=my_count).astype(np.int64)
    coarse_constraint = None
    if constraint is not None:
        coarse_constraint = np.zeros(my_count, dtype=np.int64)
        coarse_constraint[got_ids - my_first] = got_cons[0]
    # Arcs between the same two coarse nodes from different PEs are still
    # apart; from_arcs merges them.
    coarse = DistGraph.from_arcs(
        coarse_vtxdist, comm.rank, all_src, all_dst, all_wgt, coarse_vwgt
    )
    return DistContraction(dgraph, coarse, coarse_of, coarse_constraint)


def _local_quotient(
    dgraph: DistGraph, coarse_of: np.ndarray, coarse_vtxdist: np.ndarray
) -> list[object]:
    """This PE's share of the quotient arcs ``(src, dst, wgt)`` in global
    coarse ids, one triple per coarse owner: rows by source, each ordered
    by neighbour, parallel arcs summed.

    The local CSR with one empty row per ghost is a CSR over every local
    id, and ``coarse_of`` (ghosts included) maps each of them to its
    coarse node, so the sequential kernel runs on it as is.  The kernel
    returns the quotient of the *transpose*: each local arc ``u -> v``
    comes back reversed, as ``coarse_of[v] -> coarse_of[u]``.  These
    partial arcs still add up to the quotient: over all PEs, every arc of
    the fine graph is read once, and the fine graph is symmetric, so the
    reversed arcs are the fine arcs again, each ``v -> u`` with the weight
    of ``u -> v``.  Summed by the owners of their rows
    (:meth:`~repro.dist.dgraph.DistGraph.from_arcs`), they are the same
    coarse graph.  The kernel's rows are the global coarse ids, hence each
    owner's arcs are one slice.
    """
    ghost_rows = np.full(dgraph.n_ghost, dgraph.num_arcs, dtype=np.int64)
    xadj_c, dst_c, wgt_c = quotient_arcs(
        np.concatenate((dgraph.xadj, ghost_rows)), dgraph.adjncy, dgraph.adjwgt,
        coarse_of, int(coarse_vtxdist[-1]))
    bounds = xadj_c[coarse_vtxdist]
    return [
        (
            np.repeat(np.arange(first, last, dtype=np.int64), np.diff(xadj_c[first : last + 1])),
            dst_c[lo:hi],
            wgt_c[lo:hi],
        )
        for first, last, lo, hi in zip(
            coarse_vtxdist[:-1], coarse_vtxdist[1:], bounds[:-1], bounds[1:])
    ]


def parallel_uncoarsen(
    contraction: DistContraction,
    comm: SimComm,
    coarse_partition_local: np.ndarray,
) -> np.ndarray:
    """Project a coarse partition to the fine level (Section IV-C end).

    ``coarse_partition_local`` holds the block of each coarse node this
    PE owns; the result is the block of each *fine local* node, fetched
    from the coarse representatives' owners.
    """
    with TRACER.span(
        "uncoarsen.project", comm=comm,
        fine_nodes=contraction.fine.n_global,
        coarse_nodes=contraction.coarse.n_global,
    ):
        return lookup_coarse_values(
            comm,
            contraction.local_to_coarse,
            contraction.coarse.vtxdist,
            np.asarray(coarse_partition_local, dtype=np.int64),
        )
