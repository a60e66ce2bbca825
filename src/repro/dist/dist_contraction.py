"""Parallel contraction and uncoarsening (paper Section IV-C).

Contraction of a distributed clustering proceeds exactly as in the paper:

1. **Count distinct cluster ids.**  PE ``p`` is made responsible for the
   id interval ``I_p``; every PE ships the cluster ids of its local nodes
   to the responsible PEs, which deduplicate.  A reduce yields the global
   coarse node count ``n'``.
2. **Remap ids.**  An exclusive prefix sum over the per-PE distinct
   counts gives each responsible PE the offset of its ids in the
   contiguous coarse range; the composed map is
   ``C: fine node -> coarse node in 0..n'-1``.  PEs that used a non-local
   cluster id fetch its remapped value with a request/response round.
3. **Ghost mapping.**  A halo exchange propagates ``C`` to ghost nodes.
4. **Build the coarse graph.**  Every PE builds the weighted quotient of
   its local subgraph with the sequential quotient kernel
   (:func:`repro.graph.quotient.quotient_arcs`, over the local CSR
   extended by one empty row per ghost; the kernel reads every arc
   reversed, which the symmetry of the fine graph makes harmless, see
   :func:`_local_quotient`), then ships each coarse arc — and each coarse
   node-weight contribution — to the PE that owns the coarse source under
   the balanced coarse distribution.  Receivers merge duplicates and
   assemble their local CSR (:meth:`~repro.dist.dgraph.DistGraph.from_arcs`).

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
    #: coarse global id of each fine local node
    local_to_coarse: np.ndarray
    #: coarse constraint labels for coarse local nodes (if tracked)
    coarse_constraint: np.ndarray | None


def _interval_owner(ids: np.ndarray, n_global: int, size: int) -> np.ndarray:
    """The PE responsible for each id under a balanced interval split."""
    bounds = balanced_vtxdist(n_global, size)
    return (np.searchsorted(bounds, ids, side="right") - 1).astype(np.int64)


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
    n_local = dgraph.n_local
    n_global = dgraph.n_global
    local_labels = np.asarray(labels[:n_local], dtype=np.int64)

    # ------------------------------------------------------------------
    # 1. Distinct cluster ids, counted at interval-responsible PEs
    # ------------------------------------------------------------------
    unique_local = np.unique(local_labels)
    owners = _interval_owner(unique_local, n_global, comm.size)
    received, send_order = _exchange_by_owner(comm, unique_local, owners)
    my_ids = np.unique(np.concatenate(received)) if received else np.empty(0, np.int64)
    comm.work(n_local + unique_local.size)

    # ------------------------------------------------------------------
    # 2. Prefix-sum remap q : cluster id -> 0..n'-1
    # ------------------------------------------------------------------
    offset = int(comm.exscan(int(my_ids.size)))
    n_coarse = int(comm.allreduce(int(my_ids.size)))
    # Answer the remap for the ids each PE asked about.  Step 1's
    # exchange already delivered exactly these per-source requests, so
    # the ``received`` buffers are reused — no second request round.
    responses: list[object] = [None] * comm.size
    for q, req in enumerate(received):
        responses[q] = offset + np.searchsorted(my_ids, req) if req.size else req
    answered = comm.alltoall(responses)
    remap = np.empty(unique_local.size, dtype=np.int64)
    remap[send_order] = np.concatenate(
        [np.asarray(a, dtype=np.int64) for a in answered]
    )
    # C over local nodes, via the sorted unique_local index
    local_to_coarse = remap[np.searchsorted(unique_local, local_labels)]

    # ------------------------------------------------------------------
    # 3. Ghost mapping via halo exchange
    # ------------------------------------------------------------------
    coarse_of = np.zeros(dgraph.n_total, dtype=np.int64)
    coarse_of[:n_local] = local_to_coarse
    dgraph.halo_exchange(comm, coarse_of)

    # ------------------------------------------------------------------
    # 4. Local quotient, then shuffle to coarse owners
    # ------------------------------------------------------------------
    coarse_vtxdist = balanced_vtxdist(n_coarse, comm.size)
    per_dest = _local_quotient(dgraph, coarse_of, coarse_vtxdist)
    comm.work(dgraph.num_arcs)
    arc_msgs = comm.alltoall(per_dest)

    # Coarse node weights (and optional constraint labels) contributed by
    # this PE's local nodes, shipped to the coarse owners.
    contrib_ids, inverse = np.unique(local_to_coarse, return_inverse=True)
    contrib_wgt = np.bincount(inverse, weights=dgraph.vwgt).astype(np.int64)
    if constraint is not None:
        # All fine nodes of a coarse node share the constraint label
        # (clusters never span constraint blocks), so any representative
        # value works.
        rep = np.zeros(contrib_ids.size, dtype=np.int64)
        rep[inverse] = np.asarray(constraint[:n_local], dtype=np.int64)
    # ``contrib_ids`` is sorted (np.unique), so owners are non-decreasing
    # and the per-destination buckets are again contiguous slices.
    node_owner = np.searchsorted(coarse_vtxdist[1:], contrib_ids, side="right")
    node_bounds = np.searchsorted(node_owner, np.arange(comm.size + 1))
    per_dest = [None] * comm.size
    for q in range(comm.size):
        sl = slice(node_bounds[q], node_bounds[q + 1])
        payload = (contrib_ids[sl], contrib_wgt[sl])
        if constraint is not None:
            payload = payload + (rep[sl],)
        per_dest[q] = payload
    node_msgs = comm.alltoall(per_dest)

    # ------------------------------------------------------------------
    # Assemble the local coarse subgraph
    # ------------------------------------------------------------------
    my_first = int(coarse_vtxdist[comm.rank])
    my_count = int(coarse_vtxdist[comm.rank + 1]) - my_first

    coarse_vwgt = np.zeros(my_count, dtype=np.int64)
    coarse_constraint = np.zeros(my_count, dtype=np.int64) if constraint is not None else None
    got_ids = np.concatenate([m[0] for m in node_msgs]) if node_msgs else np.empty(0, np.int64)
    got_wgt = np.concatenate([m[1] for m in node_msgs]) if node_msgs else np.empty(0, np.int64)
    if got_ids.size:
        coarse_vwgt += np.bincount(
            got_ids - my_first, weights=got_wgt, minlength=my_count
        ).astype(np.int64)
    if coarse_constraint is not None:
        for msg in node_msgs:
            if len(msg) > 2 and msg[0].size:
                coarse_constraint[msg[0] - my_first] = msg[2]

    # Arcs between the same two coarse nodes from different PEs are still
    # apart; from_arcs merges them.
    all_src, all_dst, all_wgt = (np.concatenate(column) for column in zip(*arc_msgs))
    coarse = DistGraph.from_arcs(
        coarse_vtxdist, comm.rank, all_src, all_dst, all_wgt, coarse_vwgt
    )
    return DistContraction(dgraph, coarse, local_to_coarse, coarse_constraint)


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
