"""Reference oracle: size-constrained label propagation, one node at a time.

The algorithm of arXiv:1402.3281 §III-A (sequential) and the paper's
§IV-A/B (its parallelisation), written as plainly as the pseudocode: a
Python loop over the visit order, a dict of connection strengths per
node, scalar bookkeeping.  It exists to be *read* and to be compared
against — ``run_sclp(..., chunk=1, pin_sweep="full")`` must return the
same labels bit for bit (``tests/core/test_lp_kernels.py``,
``tests/dist/test_lp_kernels.py``).  It talks to the substrate through
the same :class:`~repro.engine.backend.ExecutionBackend` hooks as the
engine, so it runs on one PE or many.

A visited node ``v`` with label ``own`` and weight ``c``:

1. sums the weight of its arcs per neighbouring label (arcs across the
   ``constraint`` partition do not count); its own label is always a
   candidate, with strength 0 if no neighbour carries it;
2. drops ineligible labels: another label ``l`` is eligible while
   ``used[l] + c <= cap[l]``; the own label is eligible unless ``v`` is
   being *evicted* (refinement only: its block is over the bound);
3. moves to the eligible label maximising ``(strength, tie hash)``,
   the smallest label winning an exact hash collision.

``used``/``cap`` are the two weight regimes of
:func:`~repro.engine.sclp.run_sclp`: live label weights against the
bound (``shares=False``), or this PE's net inflow against its 1/p share
of each block's slack, with exact weights restored by a reduction after
every phase (``shares=True``).
"""

from __future__ import annotations

import numpy as np

from .numpy_kernels import candidate_tie_hash


def reference_sclp(
    backend,
    labels,
    max_block_weight,
    iterations,
    *,
    refine=False,
    shares=False,
    k=None,
    ordering="degree",
    constraint=None,
    tie_seed=0,
    delta=True,
    band=None,
):
    labels = np.asarray(labels, dtype=np.int64).copy()
    bound = int(max_block_weight)
    vwgt = backend.node_weights()
    n_local = backend.n_local
    xadj, adjncy, adjwgt = backend.xadj, backend.adjncy, backend.adjwgt
    degrees = backend.degrees

    if shares:
        space = int(k)
        exact = backend.reduce_block_weights(labels, space)
    else:
        space = int(labels.max()) + 1 if refine else backend.label_space(labels)
        used = np.zeros(space, dtype=np.int64)
        for v in range(backend.n_total):
            used[labels[v]] += vwgt[v]
        cap = np.full(space, bound, dtype=np.int64)

    scope = np.arange(n_local) if band is None else np.asarray(band, dtype=np.int64)

    # The tables below are rebound at every phase head; the helpers read
    # whatever the current phase's are.
    def overloaded(block):
        if shares:
            return exact[block] > bound and evicted[block] < evict_budget[block]
        return used[block] > bound

    def move(v, own, target, evicting):
        used[own] -= vwgt[v]
        used[target] += vwgt[v]
        if shares and evicting:
            evicted[own] += vwgt[v]
        labels[v] = target
        changed[v] = True

    for _ in range(iterations):
        if ordering == "degree":
            order = scope[np.argsort(degrees[scope], kind="stable")]
        elif ordering == "node":
            order = scope
        else:
            order = scope[backend.rng.permutation(scope.size)]

        if shares:
            # This PE may add (Lmax - w(b)) / p to block b and evict
            # (w(b) - Lmax) / p from an overloaded one.
            cap = np.maximum(0.0, (bound - exact) / backend.size)
            evict_budget = np.maximum(0.0, (exact - bound) / backend.size)
            used = np.zeros(space, dtype=np.int64)
            evicted = np.zeros(space, dtype=np.int64)

        changed = np.zeros(n_local, dtype=bool)
        moved = 0
        arcs = 0
        for v in order.tolist():
            own, c = int(labels[v]), int(vwgt[v])
            if degrees[v] == 0:
                # No label to adopt; in refinement an isolated node can
                # still repair balance by leaving an overloaded block for
                # the lightest one with room.
                if refine and overloaded(own):
                    weight_now = exact + used if shares else used
                    room = [b for b in range(space)
                            if b != own and used[b] + c <= cap[b]]
                    if room:
                        move(v, own, min(room, key=lambda b: weight_now[b]), True)
                        moved += 1
                continue
            arcs += int(degrees[v])

            strength = {own: 0}
            for a in range(int(xadj[v]), int(xadj[v + 1])):
                u = int(adjncy[a])
                if constraint is not None and constraint[u] != constraint[v]:
                    continue
                lab = int(labels[u])
                strength[lab] = strength.get(lab, 0) + int(adjwgt[a])

            evicting = refine and overloaded(own)
            best, best_key = None, None
            for lab in sorted(strength):
                if lab == own:
                    eligible = not evicting
                else:
                    eligible = used[lab] + c <= cap[lab]
                if not eligible:
                    continue
                tie = candidate_tie_hash(
                    tie_seed, np.array([backend.tie_base + v]), np.array([lab])
                )[0]
                key = (strength[lab], int(tie))
                if best is None or key > best_key:
                    best, best_key = lab, key
            if best is not None and best != own:
                move(v, own, best, evicting)
                moved += 1
        backend.work(arcs)

        # Phase boundary: ship changed interface labels, fold in the
        # neighbours' (one phase stale within the phase, as in the paper).
        ghost_idx, ghost_vals = backend.exchange_labels(labels, changed, delta)
        for g, new in zip(ghost_idx.tolist(), ghost_vals.tolist()):
            if not refine and labels[g] != new:
                used[labels[g]] -= vwgt[g]
                used[new] += vwgt[g]
            labels[g] = new
        if shares:
            exact = backend.reduce_block_weights(labels, space)
        # Stop once no node moved on any rank.
        if backend.global_changed(moved) == 0:
            break
    return labels
