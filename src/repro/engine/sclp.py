"""The SCLP phase loop (paper §III-A, §IV-B; arXiv:1402.3281).

One loop is the size-constrained label propagation of *both* pipelines
and *both* uses (coarsening and refinement).  A phase visits the nodes
in order, ``chunk`` at a time; every visited node moves to the eligible
label it is most strongly connected to, ties broken by a stateless hash
of ``(seed, node, label)``; labels and weights are committed between
chunks.  ``chunk = 1`` is the node-at-a-time algorithm of the papers;
larger chunks let a node see labels and weights that are up to one chunk
stale, the same staleness the distributed runs already tolerate across
PEs.  The phase itself is compiled (``scan_phase`` of ``_scan.c``,
through :class:`repro.native.PhaseScan`; :mod:`repro.engine.kernels`
says what a chunk decides).

Where the arcs come from is the only thing that differs between a
resident graph and an out-of-core store, and it changes no label:

* a resident CSR is bound to the kernel once, and a phase is one call;
* an out-of-core store (arXiv:1404.4887's semi-external regime: node
  state in RAM, one sequential pass over the edge blocks) is read one
  *shard segment* at a time — the run of consecutive chunk windows whose
  first node lies in one shard.  The segment's arcs are one
  ``arc_block`` call (a zero-copy view of the mapped shard, or a copy
  when its last window crosses a seam), and the segment is one call.
  That needs an ascending visit order: ``ordering='node'``, possibly
  without the isolated nodes (clustering) or restricted to a sorted
  band.  Windows, staleness and frontier marks are those of the one
  call on the resident graph, so the labels are the same bit for bit.

Everything that differs between the sequential and the distributed run
is either an :class:`~repro.engine.backend.ExecutionBackend` hook (halo
exchange, work charging, block-weight reduction, move-count reduction,
tie-hash id base) or one of two *weight regimes* selected by ``shares``.
Both are the same three tables — ``used`` (weight booked against a
label), ``cap`` (what it may hold) and ``load`` (what decides whether a
block is overloaded) — initialised differently:

* ``shares=False`` — live accounting: ``used`` is the label's weight,
  updated on every committed move, ``cap`` is the bound.  This is the
  sequential semantics (and the clustering regime on both backends,
  where the view is a local, optimistically-updated approximation).
* ``shares=True`` — the paper's refinement regime: exact block weights
  restored by a (backend) reduction at every phase boundary, and per-PE
  1/p budget shares within the phase (``used`` is this PE's net inflow,
  ``cap`` its share of the slack), so the bound holds even when every
  PE exhausts its share.  On the local backend the reduction is a
  ``bincount`` and the share is 1/1 — the exact p = 1 degeneration of
  the SPMD semantics.

Which nodes a phase scans — every node, or only the *frontier* whose
decision inputs changed (label-identical, see
:mod:`~repro.engine.kernels`) — follows from the mode.  Refinement
starts from a projected partition in which few nodes move, so it runs
the frontier sweep from its first phase; clustering starts from
singletons, most nodes move and every caller stops after a few rounds,
so it runs the full sweep and skips the frontier bookkeeping.  The chunk
is the requested one, clamped by the store and capped so a phase has at
least 32 refreshes, constant for the call.  ``pin_sweep`` overrides the
sweep: the identity tests use it as the reference; no production caller
does.

A call stops after the first phase in which no node moved on any rank
(the SCLP stop rule of arXiv:1402.3281); ``global_changed`` is the sum
of the phase's move counts over the backend's ranks.
"""

from __future__ import annotations

import numpy as np

from .. import native
from .kernels import DEFAULT_CHUNK_SIZE, effective_chunk
from ..obsv.tracer import TRACER
from .backend import ExecutionBackend

__all__ = ["ORDERINGS", "run_sclp"]

#: the node visiting orders a phase takes (see :func:`run_sclp`)
ORDERINGS = ("degree", "random", "node")


def _shard_segments(order: np.ndarray, chunk: int, span: int | None) -> list[tuple[int, int]]:
    """``[lo, hi)`` slices of ``order`` that one kernel call runs: the
    runs of consecutive ``chunk`` windows whose first node lies in one
    shard of ``span`` nodes (all of ``order`` when ``span`` is ``None``)."""
    if order.size == 0:
        return []
    if span is None:
        return [(0, order.size)]
    shard = order[::chunk] // span
    starts = (np.flatnonzero(shard[1:] != shard[:-1]) + 1) * chunk
    bounds = [0, *starts.tolist(), order.size]
    return list(zip(bounds[:-1], bounds[1:]))


def run_sclp(
    backend: ExecutionBackend,
    labels: np.ndarray,
    max_block_weight: int,
    iterations: int,
    *,
    refine: bool = False,
    shares: bool = False,
    k: int | None = None,
    ordering: str = "degree",
    constraint: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK_SIZE,
    pin_sweep: str | None = None,
    tie_seed: int = 0,
    delta: bool = True,
    band: np.ndarray | None = None,
) -> np.ndarray:
    """Run SCLP phases on ``backend``; returns the new label array.

    Collective over the backend's communicator.  ``labels`` (length
    ``n_total``, consistent ghost entries; ``ValueError`` otherwise) is
    not modified: the caller picks them, singletons to cluster or a
    partition to refine, and ``max_block_weight`` is used as given.
    ``tie_seed`` seeds the tie-break hash (the pipelines draw it from
    the backend's generator just before the call).  ``shares``
    selects the weight regime (see module docstring); it requires ``k``.
    ``ordering`` is ``'degree'`` (ascending), ``'random'`` (fresh every
    phase) or ``'node'`` (natural order: chunk windows are contiguous
    node, and therefore shard, ranges — the shard-sequential visit order
    of the semi-external regime, and the only one an out-of-core store
    takes).  ``band`` restricts the visited nodes to the given set: nodes
    outside it contribute weights and connections but never move (band
    refinement).  ``chunk`` is the requested nodes per chunk (>= 1);
    ``pin_sweep`` (``'full'`` or ``'frontier'``) holds that sweep instead
    of the mode's own (see module docstring) — a reference for tests and
    diagnostics.
    """
    if shares and (k is None or not refine):
        raise ValueError("the budget-share regime is refinement-only and requires k")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if pin_sweep not in (None, "full", "frontier"):
        raise ValueError(
            f"pin_sweep must be None, 'full' or 'frontier', got {pin_sweep!r}"
        )
    if band is not None:
        band = np.ascontiguousarray(band, dtype=np.int64)
    store = backend.store
    if store is not None:
        unsorted = band is not None and bool(np.any(band[1:] < band[:-1]))
        if ordering != "node" or unsorted:
            raise ValueError(
                f"an out-of-core {type(store).__name__} is read shard by shard "
                "and needs an ascending visit order: ordering='node' and a "
                f"sorted band, got ordering={ordering!r}"
                + (" with an unsorted band" if unsorted else "")
            )
        # A sharded store rounds the request to a divisor of its shard
        # node span, so uncapped chunk windows stay inside one shard.
        chunk = store.clamp_chunk(chunk)
    sweep = pin_sweep or ("frontier" if refine else "full")
    sweep_frontier = sweep == "frontier"
    labels = np.array(labels, dtype=np.int64, order="C")
    if labels.shape != (backend.n_total,):
        raise ValueError(
            f"labels must assign a label to every node: got shape {labels.shape} "
            f"for {backend.n_total} nodes"
        )
    bound = int(max_block_weight)
    vwgt_all = np.ascontiguousarray(backend.node_weights(), dtype=np.int64)
    if constraint is not None:
        constraint = np.ascontiguousarray(constraint, dtype=np.int64)
    n_local = backend.n_local
    xadj, degrees = backend.xadj, backend.degrees
    mode_name = "refine" if refine else "cluster"
    if TRACER.enabled:
        TRACER.annotate_header(lp_kernel="native")

    # The weight tables (module docstring).  ``load`` is rebound at every
    # phase head: the exact weights under ``shares``, else ``used`` itself.
    exact = local_out = evict_budget = None
    if shares:
        space = int(k)
        exact = backend.reduce_block_weights(labels, space)
        used = np.zeros(space, dtype=np.int64)
        local_out = np.zeros(space, dtype=np.int64)
    else:
        space = (int(labels.max(initial=0)) + 1 if refine
                 else backend.label_space(labels))
        used = np.bincount(
            labels, weights=vwgt_all, minlength=space
        ).astype(np.int64)
        cap = np.full(space, bound, dtype=np.int64)

    # Visit order = the scope (every local node, or the band) in the
    # requested order; degree and node order are phase-invariant.
    scope = np.arange(n_local, dtype=np.int64) if band is None else band
    if ordering == "degree":
        static_order = scope[np.argsort(degrees[scope], kind="stable")]
    else:
        static_order = scope if ordering == "node" else None

    active = np.ones(n_local, dtype=bool)
    # Persistent per-phase masks: filled (not reallocated) every phase,
    # with the frontier double-buffer swapped at the phase boundary.
    next_active = np.zeros(n_local, dtype=bool)
    changed_mask = np.zeros(n_local, dtype=bool)
    run_phase = native.PhaseScan(
        xadj, labels, constraint, vwgt_all, used, local_out, changed_mask,
        n_local=n_local, space=space, bound=bound, refine=refine,
        frontier=sweep_frontier, tie_seed=tie_seed, tie_base=backend.tie_base,
        window=effective_chunk(chunk, scope.size),
    )
    if store is None:
        loop, span = "native", None
        run_phase.bind_arcs(0, backend.adjncy, backend.adjwgt)
    else:
        loop, span = "native: store segments", store.chunk_nodes
    for _phase in range(max(0, iterations)):
        order = (
            static_order if static_order is not None
            else scope[backend.rng.permutation(scope.size)]
        )
        if not refine:
            # An isolated node has no label to adopt.
            order = order[degrees[order] > 0]
        phase_chunk = effective_chunk(chunk, order.size)
        span_extra = {} if band is None else {"band_size": int(scope.size)}
        lp_span = TRACER.span(
            "lp.iteration", **backend.span_kwargs(), sweep=sweep,
            mode=mode_name, iteration=_phase, chunk_size=phase_chunk,
            constrained=constraint is not None, loop=loop, **span_extra,
        )
        lp_span.__enter__()
        if shares:
            # This PE's shares of the slack and of the overload, 1/p each
            # and rounded to the integers a block weight compares alike
            # against: x <= c iff x <= floor(c), x < c iff x < ceil(c).
            cap = np.maximum(0, bound - exact) // backend.size
            evict_budget = -(np.minimum(0, bound - exact) // backend.size)
            used[:] = 0
            local_out[:] = 0
        load = exact if shares else used
        if sweep_frontier and refine:
            over = np.flatnonzero(load > bound)
            if over.size:
                # Eviction pressure reaches over-budget blocks' members
                # even when their neighbourhood never changed.
                active |= np.isin(labels[:n_local], over)
        changed_mask.fill(False)
        next_active.fill(False)
        moved = scanned = arcs_scanned = n_chunks = 0
        # A segment starts at a multiple of the chunk, so its call runs
        # the windows one call over the whole order would.
        segments = _shard_segments(order, phase_chunk, span)
        for lo, hi in segments:
            if store is not None:
                arc_lo, arc_hi = int(xadj[order[lo]]), int(xadj[order[hi - 1] + 1])
                run_phase.bind_arcs(arc_lo, *store.arc_block(arc_lo, arc_hi))
            m, s, a, c = run_phase(
                order[lo:hi], phase_chunk, cap, exact, evict_budget, active,
                next_active,
            )
            moved, scanned, arcs_scanned, n_chunks = (
                moved + m, scanned + s, arcs_scanned + a, n_chunks + c)
        backend.work(arcs_scanned)

        ghost_idx, ghost_vals = backend.exchange_labels(labels, changed_mask, delta)
        if ghost_idx.size:
            diff = labels[ghost_idx] != ghost_vals
            if diff.any():
                changed_ghosts = ghost_idx[diff]
                if not refine:
                    # The cluster regime's local view follows its ghosts.
                    g_w = vwgt_all[changed_ghosts]
                    np.subtract.at(used, labels[changed_ghosts], g_w)
                    np.add.at(used, ghost_vals[diff], g_w)
                if sweep_frontier:
                    next_active[backend.ghost_change_sources(changed_ghosts)] = True
                labels[changed_ghosts] = ghost_vals[diff]

        if shares:
            # Restore exact weights with one reduction (Section IV-B).
            exact = backend.reduce_block_weights(labels, space)

        global_changed = backend.global_changed(moved)
        lp_span.set(moved=moved, arcs=arcs_scanned, chunks=n_chunks,
                    global_changed=global_changed, active=scanned,
                    frontier_frac=round(scanned / max(1, order.size), 4))
        if TRACER.enabled and store is not None:
            # An out-of-core store's access counters are cumulative: the
            # last iteration's sample is the run's total.
            lp_span.set(segments=len(segments), store=store.stats().as_dict())
        lp_span.__exit__(None, None, None)
        if sweep_frontier:
            active, next_active = next_active, active
        if global_changed == 0:
            break
    return labels
