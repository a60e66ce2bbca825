"""The Python twin of :class:`repro.native.PhaseScan`: the SCLP chunk loop.

``scan_phase`` of ``_scan.c`` runs the chunk loop below in one compiled
call per bound arc block; this is that loop written out over the NumPy
chunk scan of :mod:`tests.engine.numpy_kernels`, behind the same
signature (``bind_arcs`` included), so a ``run_sclp`` call can run on
either and the two must return the same labels and per-phase counts
(``tests/engine/test_native_kernel.py``).  The ``numpy_kernel`` fixture
of ``tests/conftest.py`` installs it in place of the compiled class.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import gather_neighbors

from .numpy_kernels import capped_inflow_mask, chunk_ranges, scan_chunk

_SENTINEL = np.iinfo(np.int64).max


class PythonPhaseScan:
    """:class:`repro.native.PhaseScan`, one window at a time in NumPy."""

    def __init__(self, xadj, labels, constraint, vwgt, used, local_out,
                 changed_mask, *, n_local: int, space: int, bound: int,
                 refine: bool, frontier: bool, tie_seed: int, tie_base: int,
                 window: int) -> None:
        if not 0 <= n_local <= labels.size:
            raise ValueError(f"n_local={n_local} outside [0, {labels.size}]")
        self.xadj, self.labels, self.constraint = xadj, labels, constraint
        self.vwgt, self.used = vwgt, used
        self.local_out, self.changed_mask = local_out, changed_mask
        self.n_local, self.space, self.bound = n_local, space, bound
        self.refine, self.frontier, self.window = refine, frontier, window
        self.tie_seed, self.tie_base = tie_seed, tie_base
        if frontier:
            self.blocked = np.zeros(n_local, dtype=np.uint64)
            self.slack = np.zeros(n_local, dtype=np.int64)
        self.bind_arcs(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def bind_arcs(self, arc_lo: int, nbr, wgt) -> None:
        """Serve the arcs ``[arc_lo, arc_lo + nbr.size)`` until the next bind."""
        self.nbr, self.wgt = np.asarray(nbr), np.asarray(wgt)
        # head pointers into the bound block
        self.block_xadj = self.xadj - int(arc_lo)

    def __call__(self, order, chunk: int, cap, exact, evict_budget, active,
                 next_active) -> tuple[int, int, int, int]:
        if not 1 <= chunk <= self.window:
            raise ValueError(f"chunk {chunk} outside [1, {self.window}]")
        xadj, adjncy, adjwgt = self.block_xadj, self.nbr, self.wgt
        labels, used, vwgt = self.labels, self.used, self.vwgt
        refine, shares, bound = self.refine, exact is not None, self.bound
        load = exact if shares else used
        local_out = self.local_out
        arcs_scanned = moved = scanned = n_chunks = 0
        for lo, hi in chunk_ranges(order.size, chunk):
            n_chunks += 1
            nodes = order[lo:hi]
            if nodes.size and (nodes.min() < 0 or nodes.max() >= self.n_local):
                raise ValueError("a visited node is outside its table")
            if self.frontier:
                nodes = nodes[active[nodes] | self._unblocked(nodes, cap)]
                if nodes.size == 0:
                    continue
            begin, end = xadj[nodes], xadj[nodes + 1]
            if np.any((begin < 0) | (end < begin) | (end > adjncy.size)):
                raise ValueError("a visited node has arcs outside the bound block")
            scanned += int(nodes.size)
            node_deg = end - begin
            connected = nodes[node_deg > 0] if refine else nodes
            if connected.size:
                own = labels[connected]
                evicting = None
                if refine:
                    # A node of an overloaded block must leave it (while
                    # this PE's eviction share lasts); anyone else may stay.
                    evicting = load[own] > bound
                    if shares:
                        evicting &= local_out[own] < evict_budget[own]
                target, blocked, margin, arcs = scan_chunk(
                    connected, xadj, adjncy, adjwgt, labels, self.constraint,
                    vwgt, used, cap, evicting, self.tie_seed, self.tie_base,
                    self.space,
                )
                arcs_scanned += arcs
                if self.frontier:
                    self.blocked[connected] = blocked
                    self.slack[connected] = margin
                moving = np.flatnonzero(target != own)
                if moving.size:
                    m_nodes, m_own = connected[moving], own[moving]
                    m_target, m_c = target[moving], vwgt[m_nodes]
                    keep = capped_inflow_mask(
                        m_target, m_c, used[m_target], cap[m_target]
                    )
                    if self.frontier:
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
                    self.changed_mask[m_nodes] = True
                    moved += int(m_nodes.size)
                    if self.frontier and m_nodes.size:
                        next_active[m_nodes] = True
                        # A move shifts a neighbour's strength to two labels
                        # by w each: it is rescanned, next phase and by the
                        # later windows of this one, once that can outweigh
                        # its margin.
                        nbrs = gather_neighbors(m_nodes, xadj, adjncy)
                        weights = gather_neighbors(m_nodes, xadj, adjwgt)
                        local = nbrs < self.n_local
                        nbrs = nbrs[local]
                        np.subtract.at(self.slack, nbrs, 2 * weights[local])
                        woken = nbrs[self.slack[nbrs] <= 0]
                        next_active[woken] = True
                        active[woken] = True
            if refine:
                moved += self._rebalance_isolated(
                    nodes[node_deg == 0], cap, exact, evict_budget, next_active)
        return moved, scanned, arcs_scanned, n_chunks

    def _unblocked(self, nodes, cap) -> np.ndarray:
        """Per node: a label of a flagged bit of its mask has room in the
        window-start tables, or the mask stands for more than 64 labels."""
        masks = self.blocked[nodes]
        out = np.zeros(nodes.size, dtype=bool)
        some = np.flatnonzero(masks)
        if some.size:
            bits = np.arange(self.space, dtype=np.uint64) & np.uint64(63)
            flagged = ((masks[some, None] >> bits) & np.uint64(1)).astype(bool)
            room = (self.used[: self.space] + self.vwgt[nodes[some], None]
                    <= cap[: self.space])
            out[some] = (flagged & room).any(axis=1) | (flagged.sum(axis=1) > 64)
        return out

    def _rebalance_isolated(self, isolated, cap, exact, evict_budget,
                            next_active) -> int:
        """Isolated nodes are useless for the cut but can still repair
        balance: one in an overloaded block moves to the lightest block
        with room (first minimal), node at a time against the live tables."""
        labels, used, shares = self.labels, self.used, exact is not None
        load = exact if shares else used
        moved = 0
        for v in isolated.tolist():
            own_v = int(labels[v])
            c = int(self.vwgt[v])
            if load[own_v] <= self.bound or (
                shares and self.local_out[own_v] >= evict_budget[own_v]
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
                self.local_out[own_v] += c
            labels[v] = b
            moved += 1
            if self.frontier:
                next_active[v] = True
            self.changed_mask[v] = True
        return moved
