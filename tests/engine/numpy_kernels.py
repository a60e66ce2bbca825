"""The NumPy twin of the compiled chunk scan: the oracle of ``_scan.c``.

``scan_phase`` of ``repro/native/_scan.c`` decides a chunk of nodes at a
time (see :mod:`repro.engine.kernels` for what a chunk decides and why
the frontier sweep is label-identical to the full one).  This module is
the same decision written as array programs, with one signature and
bit-identical results — what the package ran before the kernel became
required, and now only the oracle the compiled kernel is held to
(``tests/engine/test_native_kernel.py``) and what
:class:`~tests.engine.python_phase.PythonPhaseScan` runs:

* neighbour-label aggregation is sort-based: one stable
  :func:`numpy.argsort` over the combined ``(node, label)`` key followed
  by :func:`numpy.add.reduceat` over group boundaries yields every
  ``(node, label)`` connection strength of the chunk;
* the eligible-argmax is a masked segmented maximum (ineligible
  candidates are forced below every real strength), ties going to the
  largest :func:`candidate_tie_hash` and then to the smallest label;
* :func:`capped_inflow_mask` cancels the tail of the chunk's moves into
  any label whose remaining capacity they would overrun.

:func:`partition_quality` is the twin of the quality sweep of
``_coarse.c`` (``repro.native.partition_quality``): the arc-length mask
and the ``np.unique`` over ``(node, block)`` keys that ``repro.metrics``
ran before the kernel.  :func:`group_arcs` is the twin of the arc
grouping (``repro.native.group_arcs``): scipy's COO -> CSR conversion,
which ``repro.graph.build`` ran before it.  :func:`ghost_layout` is the
twin of the ghost layout (``repro.native.ghost_layout``): the
``np.unique`` / ``searchsorted`` / ``argsort`` id mapping that
``repro.dist.dgraph.DistGraph`` ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.engine.kernels import _segment_local_arange

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_MIX_D = np.uint64(0xFF51AFD7ED558CCD)
_SHIFT = np.uint64(33)


def candidate_tie_hash(
    seed: int, nodes: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Stateless per-``(seed, node, label)`` tie-break priorities.

    A splitmix64-style avalanche over the candidate's node id and label.
    Unlike a shared RNG stream, the value a candidate receives does not
    depend on which other nodes are visited or in which phase — the
    property that makes frontier scans decision-identical to full
    sweeps.  Ties on the hash itself (vanishingly rare) fall back to the
    candidates' deterministic order in :func:`pick_targets_hashed`.
    """
    x = nodes.astype(np.uint64) * _MIX_A
    x ^= labels.astype(np.uint64) + _MIX_B + (np.uint64(seed) << np.uint64(1))
    x ^= x >> _SHIFT
    x *= _MIX_D
    x ^= x >> _SHIFT
    x *= _MIX_C
    x ^= x >> _SHIFT
    return x


def chunk_ranges(n: int, chunk_size: int):
    """Yield ``(start, stop)`` pairs covering ``range(n)`` in chunks."""
    for start in range(0, n, chunk_size):
        yield start, min(start + chunk_size, n)


@dataclass
class ChunkCandidates:
    """Per-(node, label) move candidates for one chunk of nodes.

    Candidates are grouped by chunk node and, within a node, ordered by
    label value.
    """

    node_pos: np.ndarray  # chunk position of each candidate (ascending)
    labels: np.ndarray  # candidate label
    strength: np.ndarray  # summed weight of arcs into the label
    is_own: np.ndarray  # candidate label == the node's current label
    seg_start: np.ndarray  # per chunk node: offset of its candidate run
    seg_count: np.ndarray  # per chunk node: number of candidates (>= 1)
    arcs_scanned: int  # degrees summed over the chunk (work accounting)


@dataclass
class ChunkPlan:
    """Label-independent arc structure of one chunk of nodes: everything
    here depends only on the chunk's nodes, the CSR arrays and the
    constraint — not on the evolving labels."""

    nodes: np.ndarray  # the chunk's nodes, in visit order
    own_pos: np.ndarray  # chunk position of each surviving arc's source
    nbr: np.ndarray  # arc targets (constraint-filtered)
    wgt: np.ndarray  # arc weights (constraint-filtered)
    arcs_scanned: int  # degrees summed pre-filter (work accounting)


def plan_chunk(
    nodes: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    constraint: np.ndarray | None = None,
) -> ChunkPlan:
    """Build the label-independent arc structure for a chunk of nodes.

    A zero-weight *self-arc* is appended per chunk node: its neighbour
    label is the node's own label by construction, which makes "staying
    put" a candidate of strength 0 even when no neighbour shares the
    node's label, with no membership test at aggregation time.  Self-arcs
    contribute no strength and are excluded from the work accounting.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    n_chunk = nodes.size
    begins = xadj[nodes]
    counts = (xadj[nodes + 1] - begins).astype(np.int64)
    total = int(counts.sum())
    arc_idx = np.repeat(begins, counts) + _segment_local_arange(counts, total)
    node_pos = np.repeat(np.arange(n_chunk, dtype=np.int64), counts)
    nbr = adjncy[arc_idx]
    wgt = adjwgt[arc_idx]
    if constraint is not None:
        keep = constraint[nbr] == constraint[nodes][node_pos]
        node_pos, nbr, wgt = node_pos[keep], nbr[keep], wgt[keep]
    node_pos = np.concatenate([node_pos, np.arange(n_chunk, dtype=np.int64)])
    nbr = np.concatenate([nbr, nodes])
    wgt = np.concatenate([wgt, np.zeros(n_chunk, dtype=wgt.dtype)])
    return ChunkPlan(
        nodes=nodes, own_pos=node_pos, nbr=nbr, wgt=wgt, arcs_scanned=total
    )


def aggregate_candidates(
    plan: ChunkPlan,
    labels: np.ndarray,
    label_span: int,
) -> ChunkCandidates:
    """Aggregate a chunk's neighbour-label connection strengths.

    Every chunk node receives at least one candidate: its own label
    appears with strength 0 when no (constraint-eligible) neighbour
    carries it (the plan's self-arc).  A node's candidates are ordered
    by label value.  ``label_span`` must exceed every value in
    ``labels``.
    """
    n_chunk = plan.nodes.size
    if n_chunk * label_span > 2**62:
        raise OverflowError(
            f"chunk of {n_chunk} nodes x label span {label_span} overflows "
            "the combined int64 sort key; use a smaller chunk"
        )
    own = labels[plan.nodes]
    key = plan.own_pos * label_span + labels[plan.nbr]
    order = np.argsort(key, kind="stable")
    g_key = key[order]
    starts = np.flatnonzero(np.r_[True, g_key[1:] != g_key[:-1]])
    n_cand = starts.size
    c_str = np.add.reduceat(plan.wgt.astype(np.int64)[order], starts)
    s_key = g_key[starts]
    c_node, c_lab = s_key // label_span, s_key % label_span

    # Every chunk node owns at least one candidate (the trailing
    # self-arc), so the run boundaries of the sorted ``c_node`` cover
    # exactly the ``n_chunk`` nodes.
    seg_start = np.flatnonzero(np.r_[True, c_node[1:] != c_node[:-1]])
    seg_count = np.diff(np.r_[seg_start, n_cand])
    is_own = c_lab == own[c_node]
    return ChunkCandidates(
        node_pos=c_node,
        labels=c_lab,
        strength=c_str,
        is_own=is_own,
        seg_start=seg_start,
        seg_count=seg_count,
        arcs_scanned=plan.arcs_scanned,
    )


def pick_targets_hashed(
    cands: ChunkCandidates,
    eligible: np.ndarray,
    tie_hash: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked argmax with hash tie-breaking, plus a *flagged* mark per
    candidate.

    ``eligible`` masks candidates per the mode's rules (own label already
    masked for evicting nodes).  Ties among the strongest eligible labels
    go to the largest :func:`candidate_tie_hash` value (hash collisions
    fall back to the first candidate in aggregation order), so the
    decision is a pure function of the node's ``(label, strength,
    eligibility)`` snapshot — no RNG stream is consumed and visiting
    fewer nodes cannot shift other nodes' draws.

    Returns ``(choice, flagged)``.  ``choice[i]`` is the index of node
    ``i``'s chosen candidate into the candidate arrays, or ``-1`` when
    no candidate is eligible.  ``flagged`` marks each *ineligible*
    candidate that would *win* were it eligible (every ineligible one
    when no candidate is eligible):
    its strength strictly beats the eligible optimum, or matches it and
    beats the winner's tie hash (the hash order is phase-invariant, so
    an equality-tie that loses it today loses it in every rescan).  Only
    a flagged label regaining capacity can alter the decision while the
    neighbourhood's labels stay put, so a stay-put node may leave the
    frontier until one does.
    """
    seg_start = cands.seg_start
    n_seg = seg_start.size
    choice = np.full(n_seg, -1, dtype=np.int64)
    m = cands.node_pos.size
    if m == 0:
        return choice, np.zeros(0, dtype=bool)
    seg_max = np.maximum.reduceat(np.where(eligible, cands.strength, -1),
                                  seg_start)
    node_max = seg_max[cands.node_pos]
    best = (cands.strength == node_max) & eligible
    h_eff = np.where(best, tie_hash, np.uint64(0))
    node_hmax = np.maximum.reduceat(h_eff, seg_start)[cands.node_pos]
    winner = (h_eff == node_hmax) & best
    idx_eff = np.where(winner, np.arange(m, dtype=np.int64),
                       np.iinfo(np.int64).max)
    seg_first = np.minimum.reduceat(idx_eff, seg_start)
    has = seg_max >= 0
    choice[has] = seg_first[has]

    # >= : an exact hash collision falls back to aggregation order,
    # which an eligibility flip could tip — keep it flagged
    danger = (cands.strength > node_max) | (
        (cands.strength == node_max) & (tie_hash >= node_hmax))
    # A node with no eligible candidate at all flags every
    # ineligible one (any flip hands that label the win outright).
    danger |= ~has[cands.node_pos]
    danger &= np.logical_not(eligible)
    return choice, danger


def scan_chunk(
    nodes: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    labels: np.ndarray,
    constraint: np.ndarray | None,
    vwgt: np.ndarray,
    used: np.ndarray,
    cap: np.ndarray,
    evicting: np.ndarray | None,
    tie_seed: int,
    tie_base: int,
    space: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decide the move of every node of a chunk against one snapshot.

    ``nodes`` (each with at least one arc) are evaluated against
    ``labels`` and the weight tables as they stand: a label is eligible
    for node ``v`` when ``used + c(v) <= cap`` (``cap`` int64, or float64
    as the reference oracle keeps it); ``v``'s own label is eligible unless ``evicting`` marks
    ``v`` (``None`` in cluster mode: nobody is evicted).  ``tie_base +
    v`` is the id hashed for tie-breaking; ``space`` exceeds every label.

    Returns ``(target, blocked, margin, arcs)``: per node the chosen
    label (its own when nothing is eligible), the mask of its candidates
    flagged by :func:`pick_targets_hashed` (bit ``l & 63`` of label
    ``l``) and, when its own label wins, by how much it beats the
    strongest unflagged other label (an untouched label counts as
    strength 0; 0 for every other node), plus the chunk's arc count.
    This is the NumPy twin of the compiled ``scan_chunk`` of
    ``_scan.c``, and its identity oracle.
    """
    cands = aggregate_candidates(
        plan_chunk(nodes, xadj, adjncy, adjwgt, constraint), labels, space
    )
    fits = used[cands.labels] + vwgt[nodes][cands.node_pos] <= cap[cands.labels]
    if evicting is None:
        eligible = cands.is_own | fits
    else:
        # A node of an overloaded block must leave it; anyone else may stay.
        eligible = np.where(cands.is_own, ~evicting[cands.node_pos], fits)
    # hash *global* ids so tie decisions are a property of the node,
    # not of its rank-local numbering
    tie_ids = nodes[cands.node_pos]
    if tie_base:
        tie_ids = tie_base + tie_ids
    choice, flagged = pick_targets_hashed(
        cands, eligible, candidate_tie_hash(tie_seed, tie_ids, cands.labels)
    )
    has = choice >= 0
    target = labels[nodes]
    target[has] = cands.labels[choice[has]]

    bits = np.left_shift(np.uint64(1), (cands.labels & 63).astype(np.uint64))
    blocked = np.bitwise_or.reduceat(np.where(flagged, bits, np.uint64(0)),
                                     cands.seg_start)
    rivals = np.where(cands.is_own | flagged, 0, cands.strength)
    stays = np.zeros(nodes.size, dtype=bool)
    stays[has] = cands.is_own[choice[has]]
    own_strength = np.zeros(nodes.size, dtype=np.int64)
    own_strength[cands.node_pos[cands.is_own]] = cands.strength[cands.is_own]
    margin = np.where(
        stays, own_strength - np.maximum.reduceat(rivals, cands.seg_start), 0)
    return target, blocked, margin, cands.arcs_scanned


def capped_inflow_mask(
    targets: np.ndarray,
    weights: np.ndarray,
    used: np.ndarray,
    budget: np.ndarray,
) -> np.ndarray:
    """Cancel chunk moves that would overrun a label's remaining capacity.

    ``targets``/``weights`` are the chunk's intended moves in visit
    order; ``used[i]`` is the weight already booked against
    ``targets[i]`` as of the chunk start and ``budget[i]`` its capacity
    (both identical for equal targets).  Per target label, the
    cumulative moved weight in visit order is cut at the first overrun
    of ``used + cumulative <= budget``, so committed weights never
    exceed the chunk-start capacity even though every node evaluated
    eligibility against the same stale snapshot.  The test is written as
    an addition (not ``cumulative <= budget - used``) so that a chunk of
    one move reproduces the eligibility comparison bit for bit, floats
    included.
    """
    if targets.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(targets, kind="stable")
    t_s, w_s = targets[order], weights[order]
    cum = np.cumsum(w_s)
    head = np.empty(t_s.size, dtype=bool)
    head[0] = True
    head[1:] = t_s[1:] != t_s[:-1]
    starts = np.flatnonzero(head)
    seg_base = cum[starts] - w_s[starts]
    seg_id = np.cumsum(head) - 1
    within = cum - seg_base[seg_id]
    ok = (used[order] + within) <= budget[order]
    keep = np.empty(targets.size, dtype=bool)
    keep[order] = ok
    return keep


def partition_quality(xadj, lo: int, hi: int, arc_lo: int, nbr, wgt,
                      labels: np.ndarray, space: int) -> tuple[int, int, int]:
    """``(cut arc weight, boundary nodes, communication volume)`` of the
    source nodes ``[lo, hi)``, with the kernel's signature and its
    ``ValueError`` for an index outside its table."""
    def fault(what: str) -> ValueError:
        return ValueError(f"numpy quality kernel: {what} is outside its table")

    nbr, wgt = np.asarray(nbr), np.asarray(wgt)
    if not 0 <= lo <= hi <= xadj.size - 1 or hi > labels.size:
        raise fault("a node id")
    own = labels[lo:hi]
    if ((own < 0) | (own >= space)).any():
        raise fault("a block id")
    degrees = np.diff(xadj[lo : hi + 1])
    begin, end = (int(xadj[lo]) - arc_lo, int(xadj[hi]) - arc_lo) if hi > lo else (0, 0)
    if (degrees < 0).any() or begin < 0 or end > nbr.size:
        raise fault("an arc range in xadj")
    targets, weights = nbr[begin:end], wgt[begin:end]
    if ((targets < 0) | (targets >= labels.size)).any():
        raise fault("a neighbour id")
    blocks = labels[targets]
    if ((blocks < 0) | (blocks >= space)).any():
        raise fault("a block id")
    src = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees)
    external = blocks != labels[src]
    keys = src[external] * np.int64(max(space, 1)) + blocks[external]
    return (int(weights[external].sum()), int(np.unique(src[external]).size),
            int(np.unique(keys).size))


def group_arcs(n: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray,
               mirror: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.native.group_arcs` as scipy's COO -> CSR conversion:
    a counting sort by source, then each row sorted and its equal entries
    summed; ``mirror`` concatenates the list with its reverse first.  The
    same ``ValueError`` for an endpoint outside ``[0, n)``."""
    import scipy.sparse as sp

    if mirror:
        src, dst, wgt = (np.concatenate(pair) for pair in ((src, dst), (dst, src), (wgt, wgt)))

    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        i = int(np.argmax((src < 0) | (src >= n) | (dst < 0) | (dst >= n)))
        raise native._fault(
            "arc grouping", -1,
            f"arc {i} ({src[i]} -> {dst[i]}) has an endpoint outside [0, {n})")
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], wgt[keep]
    if src.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(n + 1, dtype=np.int64), empty, empty.copy()
    rows = sp.coo_matrix((wgt, (src, dst)), shape=(n, n)).tocsr()
    rows.sum_duplicates()
    return (
        rows.indptr.astype(np.int64, copy=False),
        rows.indices.astype(np.int64, copy=False),
        rows.data.astype(np.int64, copy=False),
    )


def ghost_layout(vtxdist: np.ndarray, rank: int, xadj: np.ndarray,
                 dst: np.ndarray) -> native.GhostLayout:
    """:func:`repro.native.ghost_layout` as NumPy id mapping: ``np.unique``
    over the ghost targets, ``searchsorted`` for their local ids and
    owners, a stable ``argsort`` for the reverse CSR."""
    first, last = int(vtxdist[rank]), int(vtxdist[rank + 1])
    n_local, n_pes = xadj.size - 1, vtxdist.size - 1

    local_mask = (dst >= first) & (dst < last)
    cross = ~local_mask
    ghost_global = np.unique(dst[cross])
    adjncy = np.empty_like(dst)
    adjncy[local_mask] = dst[local_mask] - first
    adjncy[cross] = n_local + np.searchsorted(ghost_global, dst[cross])
    ghost_owner = (np.searchsorted(vtxdist, ghost_global, side="right") - 1).astype(np.int64)
    ghost_start = np.searchsorted(ghost_owner, np.arange(n_pes + 1)).astype(np.int64)

    src = np.repeat(np.arange(n_local, dtype=np.int64), np.diff(xadj))
    pair_owner = ghost_owner[adjncy[cross] - n_local]
    pair_src = src[cross]
    per_pe = [np.unique(pair_src[pair_owner == q]) for q in range(n_pes)]
    send_start = np.zeros(n_pes + 1, dtype=np.int64)
    np.cumsum([nodes.size for nodes in per_pe], out=send_start[1:])

    slots = adjncy[cross] - n_local
    ghost_xadj = np.zeros(ghost_global.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(slots, minlength=ghost_global.size), out=ghost_xadj[1:])
    ghost_src = pair_src[np.argsort(slots, kind="stable")]
    return native.GhostLayout(
        adjncy, ghost_global, ghost_owner, ghost_start, send_start,
        np.concatenate([np.empty(0, dtype=np.int64), *per_pe]), ghost_xadj,
        ghost_src)
