"""The SCLP phase loop (paper §III-A, §IV-B; arXiv:1402.3281).

One loop is the size-constrained label propagation of *both* pipelines
and *both* uses (coarsening and refinement).  A phase visits the nodes
in order, ``chunk`` at a time; every visited node moves to the eligible
label it is most strongly connected to, ties broken by a stateless hash
(:func:`~repro.engine.kernels.candidate_tie_hash`); labels and weights
are committed between chunks.  ``chunk = 1`` is the node-at-a-time
algorithm of the papers; larger chunks let a node see labels and weights
that are up to one chunk stale, the same staleness the distributed runs
already tolerate across PEs.  Over a resident CSR a phase is one
compiled call (``scan_phase`` of ``_scan.c``, through
:class:`repro.native.PhaseScan`); the chunk loop written out in
:func:`run_sclp` is the same code in Python — what runs without a
compiler and on store-served arcs, and the oracle of the compiled one.

Everything that differs between the sequential and the distributed run
is either an :class:`~repro.engine.backend.ExecutionBackend` hook (halo
exchange, work charging, block-weight reduction, convergence reduction,
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
sweep: the identity tests and the kernel bench use it as the reference;
no production caller does.

Convergence is a backend hook: the local backend stops when a phase
moves no node, the SPMD backend when the allreduced count of *changed
interface labels* is zero — each preserving its pipeline's established
(and baseline-pinned) semantics.
"""

from __future__ import annotations

import numpy as np

from .. import native
from .kernels import (
    DEFAULT_CHUNK_SIZE,
    IterationWorkspace,
    capped_inflow_mask,
    chunk_ranges,
    effective_chunk,
    gather_neighbors,
    scan_chunk as numpy_scan_chunk,
)
from ..obsv.tracer import TRACER
from ..perf.rss import memory_sample
from .backend import ExecutionBackend

__all__ = ["run_sclp"]

_SENTINEL = np.iinfo(np.int64).max


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
    ``n_total``, consistent ghost entries) is not modified.  ``shares``
    selects the weight regime (see module docstring); it requires ``k``.
    ``ordering`` is ``'degree'`` (ascending), ``'random'`` (fresh every
    phase) or ``'node'`` (natural order: chunk windows are contiguous
    node, and therefore shard, ranges — the shard-sequential visit order
    of the semi-external regime).  ``band`` restricts the visited nodes
    to the given set: nodes outside it contribute weights and
    connections but never move (band refinement).  ``chunk`` is the
    requested nodes per chunk (>= 1); ``pin_sweep`` (``'full'`` or
    ``'frontier'``) holds that sweep instead of the mode's own (see
    module docstring) — a reference for tests and diagnostics.
    """
    if shares and (k is None or not refine):
        raise ValueError("the budget-share regime is refinement-only and requires k")
    if ordering not in ("degree", "random", "node"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if pin_sweep not in (None, "full", "frontier"):
        raise ValueError(
            f"pin_sweep must be None, 'full' or 'frontier', got {pin_sweep!r}"
        )
    sweep = pin_sweep or ("frontier" if refine else "full")
    sweep_frontier = sweep == "frontier"
    labels = np.array(labels, dtype=np.int64, order="C")
    bound = int(max_block_weight)
    vwgt_all = np.ascontiguousarray(backend.node_weights(), dtype=np.int64)
    interface = backend.interface_mask()
    if constraint is not None:
        constraint = np.ascontiguousarray(constraint, dtype=np.int64)
    n_local = backend.n_local
    xadj, adjncy, adjwgt = backend.xadj, backend.adjncy, backend.adjwgt
    degrees = backend.degrees
    tie_base = backend.tie_base
    mode_name = "refine" if refine else "cluster"
    workspace = IterationWorkspace()
    # Compiled when this host could build it, NumPy otherwise: the two
    # return the same arrays bit for bit, so nothing else depends on it.
    resolution = native.resolve()
    compiled = resolution.path is not None
    scan_chunk = native.scan_chunk if compiled else numpy_scan_chunk
    if TRACER.enabled:
        TRACER.annotate_header(**resolution.header())

    # The weight tables (module docstring).  ``load`` is rebound at every
    # phase head: the exact weights under ``shares``, else ``used`` itself.
    exact = local_out = evict_budget = None
    if shares:
        space = int(k)
        exact = backend.reduce_block_weights(labels, space)
        used = np.zeros(space, dtype=np.int64)
        local_out = np.zeros(space, dtype=np.int64)
    else:
        space = int(labels.max()) + 1 if refine else backend.label_space(labels)
        used = np.bincount(
            labels, weights=vwgt_all, minlength=space
        ).astype(np.int64)
        cap = np.full(space, bound, dtype=np.int64)

    # Visit order = the scope (every local node, or the band) in the
    # requested order; degree and node order are phase-invariant.
    scope = (
        np.arange(n_local, dtype=np.int64) if band is None
        else np.ascontiguousarray(band, dtype=np.int64)
    )
    if ordering == "degree":
        static_order = scope[np.argsort(degrees[scope], kind="stable")]
    else:
        static_order = scope if ordering == "node" else None

    active = np.ones(n_local, dtype=bool)
    # Persistent per-phase masks: filled (not reallocated) every phase,
    # with the frontier double-buffer swapped at the phase boundary.
    next_active = np.zeros(n_local, dtype=bool)
    changed_mask = np.zeros(n_local, dtype=bool)
    # The store clamps the request: a sharded store rounds to a divisor
    # of its shard node span so chunk windows do not straddle shard seams.
    chunk = backend.clamp_chunk(chunk)
    # Which loop runs a phase: one compiled call over a resident CSR, or
    # the chunk loop below — the fallback, the path of store-served arcs
    # (gathered per chunk), and the oracle the compiled one is tested
    # against.  Label-identical, so this too is by availability alone.
    run_phase = None
    if not compiled:
        loop = "python: numpy kernel"
    elif type(adjncy) is not np.ndarray:
        loop = "python: store-backed graph"
    else:
        loop = "native"
        run_phase = native.PhaseScan(
            xadj, adjncy, adjwgt, labels, constraint, vwgt_all, interface,
            used, local_out, changed_mask, n_local=n_local, space=space,
            bound=bound, refine=refine, frontier=sweep_frontier,
            tie_seed=tie_seed, tie_base=tie_base,
            window=effective_chunk(chunk, scope.size), ws=workspace,
        )
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
            constrained=constraint is not None, kernel=resolution.kernel,
            loop=loop, **span_extra,
        )
        lp_span.__enter__()
        if shares:
            cap = np.maximum(0.0, (bound - exact) / backend.size)
            evict_budget = np.maximum(0.0, (exact - bound) / backend.size)
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
        if run_phase is not None:
            moved, scanned, arcs_scanned, n_chunks = run_phase(
                order, phase_chunk, cap, exact, evict_budget, active,
                next_active,
            )
        else:
            arcs_scanned = moved = scanned = n_chunks = 0
            for lo, hi in chunk_ranges(order.size, phase_chunk):
                n_chunks += 1
                nodes = order[lo:hi]
                if sweep_frontier:
                    nodes = nodes[active[nodes]]
                    if nodes.size == 0:
                        continue
                scanned += int(nodes.size)
                if refine:
                    node_deg = degrees[nodes]
                    connected = nodes[node_deg > 0]
                else:
                    connected = nodes
                if connected.size:
                    own = labels[connected]
                    evicting = None
                    if refine:
                        # A node of an overloaded block must leave it (while
                        # this PE's eviction share lasts); anyone else may stay.
                        evicting = load[own] > bound
                        if shares:
                            evicting &= local_out[own] < evict_budget[own]
                    target, risky, arcs = scan_chunk(
                        connected, xadj, adjncy, adjwgt, labels, constraint,
                        vwgt_all, used, cap, evicting, tie_seed, tie_base,
                        space, workspace,
                    )
                    arcs_scanned += arcs
                    if sweep_frontier:
                        next_active[connected[risky]] = True
                    moving = np.flatnonzero(target != own)
                    if moving.size:
                        m_nodes, m_own = connected[moving], own[moving]
                        m_target, m_c = target[moving], vwgt_all[m_nodes]
                        keep = capped_inflow_mask(
                            m_target, m_c, used[m_target], cap[m_target]
                        )
                        if sweep_frontier:
                            # A capped node may succeed once the target drains.
                            next_active[m_nodes[~keep]] = True
                        m_nodes, m_own = m_nodes[keep], m_own[keep]
                        m_target, m_c = m_target[keep], m_c[keep]
                        np.subtract.at(used, m_own, m_c)
                        np.add.at(used, m_target, m_c)
                        if shares:
                            m_evict = evicting[moving][keep]
                            np.add.at(local_out, m_own[m_evict], m_c[m_evict])
                        labels[m_nodes] = m_target
                        changed_mask[m_nodes[interface[m_nodes]]] = True
                        moved += int(m_nodes.size)
                        if sweep_frontier and m_nodes.size:
                            next_active[m_nodes] = True
                            nbrs = gather_neighbors(m_nodes, xadj, adjncy)
                            local_nbrs = nbrs[nbrs < n_local]
                            next_active[local_nbrs] = True
                            # Later windows of this phase must rescan the
                            # movers' neighbours too (within-phase propagation).
                            active[local_nbrs] = True
                if refine:
                    # Isolated nodes are useless for the cut but can still
                    # repair balance: one in an overloaded block moves to the
                    # lightest block with room (first minimal; rare, so
                    # node-at-a-time against the live tables).
                    for v in nodes[node_deg == 0].tolist():
                        own_v = int(labels[v])
                        c = int(vwgt_all[v])
                        if load[own_v] <= bound or (
                            shares and local_out[own_v] >= evict_budget[own_v]
                        ):
                            continue
                        ok = (used + c) <= cap
                        ok[own_v] = False
                        if not ok.any():
                            continue
                        weight_now = exact + used if shares else used
                        b = int(np.argmin(np.where(ok, weight_now, _SENTINEL)))
                        used[own_v] -= c
                        used[b] += c
                        if shares:
                            local_out[own_v] += c
                        labels[v] = b
                        moved += 1
                        if sweep_frontier:
                            next_active[v] = True
                        if interface[v]:
                            changed_mask[v] = True
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

        global_changed = backend.global_changed(moved, int(changed_mask.sum()))
        lp_span.set(moved=moved, arcs=arcs_scanned, chunks=n_chunks,
                    global_changed=global_changed, active=scanned,
                    frontier_frac=round(scanned / max(1, order.size), 4))
        if TRACER.enabled:
            lp_span.set(**memory_sample(), workspace_bytes=workspace.nbytes)
            if not backend.resident:
                # An out-of-core store's access counters are cumulative:
                # the last iteration's sample is the run's total.
                lp_span.set(store=backend.store_stats().as_dict())
        lp_span.__exit__(None, None, None)
        if sweep_frontier:
            active, next_active = next_active, active
        if global_changed == 0:
            break
    return labels
