"""Chunk sizing for the compiled SCLP phase kernel, and what a chunk decides.

Size-constrained label propagation evaluates the same move for every
visited node ``v``: aggregate the connection strength ``omega({(v,u) :
u in N(v) and label(u) = l})`` per neighbouring label ``l``, drop
ineligible labels (size bound / budget share), and move to the strongest
remaining label.  ``scan_phase`` of ``repro/native/_scan.c`` does that a
*chunk* of nodes at a time (a dense accumulator per node, ties to the
largest stateless hash of ``(seed, node, label)``, then the smallest
label); weight and budget bookkeeping is applied **between** chunks:
within a chunk every node sees the label array and the weight view as of
the chunk start, and the moves into a label are cut, in visit order,
where they would overrun its chunk-start capacity, so hard bounds survive
the staleness.  Its NumPy twin, the oracle it is tested against, is
``tests/engine/numpy_kernels.py``.

``chunk_size = 1`` is therefore exactly the node-at-a-time algorithm of
arXiv:1402.3281 (test-enforced against the reference oracle in
``tests/engine/reference_sclp.py``), while larger chunks trade
phase-internal staleness for throughput.  The distributed runs already
tolerate exactly this kind of staleness across PEs (ghost labels are one
phase old, Section IV-A of the paper); chunking applies the same idea
within a PE's own scan.

A phase either sweeps every node or only the *frontier* (the active
set), and the two are label-identical per iteration.  That hinges on the
hash tie-break: because a node's decision is a pure function of its
neighbourhood snapshot — no shared RNG stream advanced per visit —
scanning *fewer* nodes cannot perturb the decisions of the nodes that
are scanned.  It remains to show that a skipped node would not have
moved, and the kernel records, per scanned node that stays, what could
change that.  Call a label *flagged* when it is ineligible and beats or
ties the stay on ``(strength, hash)`` (every ineligible label, when none
is eligible); the node keeps the mask of its flagged labels (bit ``l &
63``) and its *margin*, the strength of its own label less that of the
strongest unflagged other label (an untouched label counts as 0).  At a
later window the full sweep's choice differs from the stay only if

* a flagged label became eligible — the other losers lose on strength or
  hash, whatever their eligibility, and eligibility changes only through
  ``used`` and ``cap``, which the window start shows: so a skipped node
  whose mask has a label with room in the window-start tables (every
  label of a set bit is tried; a mask that stands for more than 64
  labels wakes its node untried) is scanned in that window; or
* its neighbourhood changed by enough: a committed move of a neighbour
  ``u`` shifts the node's strength to two labels by ``w(u, v)`` each, so
  own beats every unflagged label while the margin less ``2 w`` per
  neighbour move since is positive; the commit keeps that *slack* and
  activates the neighbour, for this phase's later windows and the next
  phase, once it is ``<= 0``; or
* its own label turned ineligible (eviction), which only a block over
  its bound at a phase head can cause.

The active set therefore needs exactly: last phase's movers and capped
nodes, neighbours whose slack is spent, nodes whose ghost neighbours
changed, members of over-budget blocks (refine mode) and, window by
window, blocked nodes whose label has room.  The full sweep asks
``scan_chunk`` for neither mask nor margin, and keeps no per-node state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "MIN_REFRESHES_PER_PHASE",
    "effective_chunk",
    "gather_neighbors",
]

#: nodes per chunk unless the caller says otherwise (the default of
#: ``PartitionConfig.lp_chunk_size``) — large enough that the per-chunk
#: overhead disappears; :func:`effective_chunk` keeps the weight view
#: refreshing many times per phase on graphs too small for it
DEFAULT_CHUNK_SIZE = 4096

#: minimum bookkeeping refreshes per phase at chunk sizes > 1 — a fully
#: synchronous update (one chunk covering the whole scan) oscillates on
#: symmetric structures (the classic LP two-colouring flip); splitting
#: every phase into at least this many chunks breaks the symmetry while
#: leaving large instances at the requested chunk size
MIN_REFRESHES_PER_PHASE = 32


def effective_chunk(chunk: int, n_scan: int) -> int:
    """Cap a requested chunk size for a phase scanning ``n_scan`` nodes,
    so every phase performs at least :data:`MIN_REFRESHES_PER_PHASE`
    weight refreshes."""
    return max(1, min(chunk, -(-n_scan // MIN_REFRESHES_PER_PHASE)))


def _segment_local_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def gather_neighbors(
    nodes: np.ndarray, xadj: np.ndarray, adjncy: np.ndarray
) -> np.ndarray:
    """Concatenated CSR adjacency of ``nodes`` (one vectorised gather).

    The distributed frontier sweep uses this to turn a set of changed
    ghosts into the owned nodes whose decision inputs changed.
    Duplicates are returned as stored; callers scatter into boolean
    masks, so dedup is implicit.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    begins = xadj[nodes]
    counts = (xadj[nodes + 1] - begins).astype(np.int64)
    total = int(counts.sum())
    arc_idx = np.repeat(begins, counts) + _segment_local_arange(counts, total)
    return adjncy[arc_idx]


# ----------------------------------------------------------------------
# Names the end-to-end benchmark imports.  ``benchmarks/e2e/child.py``
# is frozen by BENCHMARK.json and records these as ``engine_defaults``
# in its results.json; nothing in the package calls them and they select
# nothing — there is one engine and one chunk default.
# ----------------------------------------------------------------------

SCAN_ENGINE = None


def resolve_chunk_size(explicit=None, default=None) -> int:
    """The chunk size a call made with ``chunk_size=explicit`` runs at."""
    return DEFAULT_CHUNK_SIZE if explicit is None else int(explicit)


def resolve_engine(explicit=None) -> str:
    """How sweeps are chosen: by the mode (see :mod:`repro.engine.sclp`)."""
    return "by-mode"
