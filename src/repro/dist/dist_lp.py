"""Parallel size-constrained label propagation (paper Sections IV-A/IV-B).

Each PE runs the shared SCLP driver (:func:`repro.engine.sclp.run_sclp`)
over its *local* nodes through the
:class:`~repro.engine.backend.SpmdBackend`; ghost labels are refreshed
through the buffered phase exchange, so within a phase a PE works with
ghost information that is one phase stale — exactly the paper's
communication/computation overlap scheme.

Block-weight bookkeeping follows the paper's two regimes:

* **coarsening** (``mode='cluster'``): the number of blocks starts at
  ``n``, so no PE can hold global weights.  Every PE tracks only a local
  *view*: the weights of the blocks its local and ghost nodes belong to,
  updated optimistically on every local move and on every received ghost
  update.  The constraint is soft, so approximate weights are fine.
* **refinement** (``mode='refine'``): only ``k`` blocks, tight
  constraint.  Exact global block weights are computed with an allreduce
  at every phase boundary (the ParMetis-style scheme the paper adopts).
  Within a phase each PE works against *per-PE budget shares*: it may add
  at most ``(Lmax - w(b)) / p`` weight to block ``b`` and evict at most
  ``(w(b) - Lmax) / p`` from an overloaded block.  The 1/p shares make
  the phase outcome safe by construction — even if every PE exhausts its
  budget, the block lands exactly at the bound — which is what keeps the
  tight constraint stable when many PEs chase the same imbalance signal
  (the failure mode the paper attributes to parallel Jostle).

Degree-based node ordering is parallelised exactly as in the paper: each
PE orders its *local* nodes by local degree; refinement uses random order.

The per-PE scan evaluates ``chunk_size`` nodes at a time against a
chunk-start snapshot of labels and weights and applies the bookkeeping
between chunks (:mod:`repro.engine.kernels`); ``chunk_size=1`` is the
node-at-a-time algorithm, and larger chunks add phase-internal staleness
of the same kind the ghost scheme already tolerates across PEs.

Each phase runs one of two *sweeps*: the full sweep scans every local
node, the frontier sweep only the active set — last phase's movers and
their local neighbours, local neighbours of ghosts whose labels changed
in the exchange, nodes flagged *risky* or capped at their last scan, and
(refine mode) members of over-budget blocks.  Clustering runs the full
sweep, refinement the frontier sweep (a function of the mode alone, so
no rank can disagree; see :mod:`repro.engine.sclp`).  With the hash
tie-break the sweeps are label-identical per iteration (test-enforced);
they only differ in throughput, because converged regions drop out of
the scan.
``comm.work`` is charged for the arcs actually scanned, so the frontier
sweeps' simulated times drop alongside wall-clock.

The phase-boundary interface exchange is a *delta* exchange by default:
each PE ships ``(interface position: int32, new label: int64)`` pairs
for the labels that changed, falling back to a dense
8-bytes-per-interface-node payload per destination whenever the delta
encoding would be larger (first iterations, where most labels change).
``CommStats`` accounts the encoded payloads, so simulated
communication time shrinks as LP converges.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import SpmdBackend
from ..engine.kernels import DEFAULT_CHUNK_SIZE
from ..engine.sclp import run_sclp
from .comm import SimComm
from .dgraph import DistGraph

__all__ = ["parallel_label_propagation", "exact_block_weights", "distributed_edge_cut"]


def exact_block_weights(
    dgraph: DistGraph, comm: SimComm, labels: np.ndarray, k: int
) -> np.ndarray:
    """Exact global block weights via one allreduce (refinement regime)."""
    local = np.bincount(
        labels[: dgraph.n_local], weights=dgraph.vwgt, minlength=k
    ).astype(np.int64)
    return comm.allreduce(local)


def distributed_edge_cut(dgraph: DistGraph, comm: SimComm, labels: np.ndarray) -> int:
    """Global edge cut of a (local + ghost) label array, via allreduce."""
    src_labels = labels[dgraph.arc_sources()]
    dst_labels = labels[dgraph.adjncy]
    local_cut = int(dgraph.adjwgt[src_labels != dst_labels].sum())
    # Cross-PE cut arcs are counted once per side, local-local arcs twice;
    # summing over all PEs double-counts every cut edge exactly twice.
    return int(comm.allreduce(local_cut)) // 2


def parallel_label_propagation(
    dgraph: DistGraph,
    comm: SimComm,
    labels: np.ndarray,
    max_block_weight: int,
    iterations: int,
    mode: str = "cluster",
    k: int | None = None,
    constraint: np.ndarray | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    pin_sweep: str | None = None,
    delta_exchange: bool = True,
) -> np.ndarray:
    """Run parallel SCLP; returns the updated length-``n_total`` label array.

    Collective over ``comm``.  ``labels`` must contain consistent ghost
    entries on entry (e.g. global node ids for clustering, or a projected
    partition refreshed by a halo exchange).  ``chunk_size`` is the
    number of nodes evaluated per chunk (>= 1).  ``pin_sweep``
    (``'full'`` / ``'frontier'``) holds that sweep instead of the
    mode's own — a reference for the identity tests and the kernel
    bench (see
    :func:`repro.engine.sclp.run_sclp`).  ``delta_exchange`` selects the
    sparse interface exchange (the default) over the dense
    per-destination payloads.
    """
    if mode not in ("cluster", "refine"):
        raise ValueError(f"unknown mode {mode!r}")
    refine = mode == "refine"
    if refine and k is None:
        raise ValueError("refinement mode requires k")
    return run_sclp(
        SpmdBackend(dgraph, comm),
        labels,
        int(max_block_weight),
        iterations,
        refine=refine,
        shares=refine,
        k=None if k is None else int(k),
        ordering="random" if refine else "degree",
        constraint=constraint,
        chunk=chunk_size,
        pin_sweep=pin_sweep,
        tie_seed=int(comm.rng.integers(0, 2**63 - 1)),
        delta=delta_exchange,
    )
