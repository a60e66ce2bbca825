"""Sequential size-constrained label propagation (paper Section III-A).

One engine drives both uses of the algorithm:

* **clustering mode** (coarsening): every node starts in its own
  singleton cluster; the size bound is ``U = max(max_v c(v), Lmax / f)``,
  which is *soft* — it only has to keep clusters contractible into a
  balanced partition later;
* **refinement mode** (uncoarsening): labels are the current partition's
  block ids, the bound is the *hard* ``Lmax`` of the partitioning
  problem, and a node in an *overloaded* block must move to its strongest
  eligible other block (improving balance at the cost of cut).

Shared semantics, exactly as the paper specifies:

* nodes are visited in degree-ascending order during coarsening (small
  nodes settle before hubs choose) and in random order during refinement;
* when node ``v`` is visited it moves to the *eligible* block with the
  strongest connection ``omega({(v, u) : u in N(v) ∩ V_l})``; a block is
  eligible if adding ``c(v)`` keeps it within the bound; staying put is
  always allowed (unless evicting);
* ties are broken by a stateless per-``(node, label)`` hash — random
  for the purposes of quality, but a pure function of the seed, so a
  node's decision does not depend on which other nodes were visited;
* iteration stops after ``iterations`` rounds or when a round moves no
  node;
* the optional V-cycle ``constraint`` partition restricts moves so each
  cluster stays inside one block of the constraint (cut edges of the
  input partition are then never contracted — Section IV-D).

The phase loop itself lives in :func:`repro.engine.sclp.run_sclp`,
shared with the distributed pipeline; this module binds it to the
:class:`~repro.engine.backend.LocalBackend` (where every communication
hook is the p = 1 identity) and keeps the public sequential API.
A phase evaluates ``chunk_size`` nodes at a time against a chunk-start
snapshot and commits eligible moves between chunks (``chunk_size=1`` is
the node-at-a-time algorithm; larger chunks trade phase-internal
staleness for throughput).  Clustering rescans every node each phase;
refinement rescans only the active frontier (label-identical, cheaper
once few nodes move).
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import LocalBackend
from ..engine.kernels import DEFAULT_CHUNK_SIZE
from ..engine.sclp import run_sclp
from ..graph.csr import Graph

__all__ = [
    "size_constrained_label_propagation",
    "label_propagation_clustering",
    "label_propagation_refinement",
    "band_nodes",
    "visit_order",
]


def band_nodes(graph: Graph, partition: np.ndarray, distance: int) -> np.ndarray:
    """Nodes within ``distance`` hops of the partition boundary.

    The band-refinement idea of PT-Scotch (paper §II-B: "the involved
    communication effort is reduced by considering only nodes close to
    the boundary of the current partitioning"): restricting local search
    to the band loses almost nothing — improving moves happen at the
    boundary — while cutting the scan cost on graphs with small cuts.
    """
    partition = np.asarray(partition)
    src = graph.arc_sources()
    cut_arcs = partition[src] != partition[graph.adjncy]
    frontier = np.unique(
        np.concatenate([src[cut_arcs], graph.adjncy[cut_arcs]])
    )
    in_band = np.zeros(graph.num_nodes, dtype=bool)
    in_band[frontier] = True
    for _ in range(max(0, distance - 1)):
        if frontier.size == 0:
            break
        next_mask = np.zeros(graph.num_nodes, dtype=bool)
        arc_from_frontier = in_band[src] & ~in_band[graph.adjncy]
        next_mask[graph.adjncy[arc_from_frontier]] = True
        frontier = np.flatnonzero(next_mask)
        in_band |= next_mask
    return np.flatnonzero(in_band)


def visit_order(
    graph: Graph, ordering: str, rng: np.random.Generator
) -> np.ndarray:
    """Node visiting order: ``'degree'`` (ascending, ties by id) or ``'random'``."""
    if ordering == "degree":
        return np.argsort(graph.degrees, kind="stable")
    if ordering == "random":
        return rng.permutation(graph.num_nodes)
    raise ValueError(f"unknown ordering {ordering!r}")


def size_constrained_label_propagation(
    graph: Graph,
    max_block_weight: int,
    iterations: int,
    rng: np.random.Generator,
    labels: np.ndarray | None = None,
    ordering: str = "degree",
    refine: bool = False,
    constraint: np.ndarray | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    pin_sweep: str | None = None,
    band: np.ndarray | None = None,
) -> np.ndarray:
    """Run the size-constrained label-propagation engine.

    Parameters
    ----------
    max_block_weight:
        The bound ``U`` (clustering) or ``Lmax`` (refinement).
    labels:
        Initial labels; defaults to singleton clusters.  The array is not
        modified; a new array is returned.
    refine:
        Enables the overloaded-block eviction rule.
    constraint:
        Optional partition; moves are restricted to neighbours in the
        same constraint block (V-cycle rule).
    chunk_size:
        Nodes evaluated per chunk (>= 1); ``1`` is the node-at-a-time
        algorithm.
    pin_sweep:
        ``'full'`` or ``'frontier'`` holds that sweep instead of the
        mode's own — the reference the identity tests and the kernel
        bench compare against (see :func:`repro.engine.sclp.run_sclp`).
    band:
        Optional node set; only these nodes are visited (see
        :func:`label_propagation_refinement`).

    Returns
    -------
    The final label array (dtype int64).
    """
    n = graph.num_nodes
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("labels must assign a label to every node")
    if n == 0:
        return labels.copy()

    return run_sclp(
        LocalBackend(graph, rng),
        labels,
        int(max_block_weight),
        iterations,
        refine=refine,
        ordering=ordering,
        constraint=constraint,
        chunk=chunk_size,
        pin_sweep=pin_sweep,
        tie_seed=int(rng.integers(0, 2**63 - 1)),
        band=band,
    )


def label_propagation_clustering(
    graph: Graph,
    max_cluster_weight: int,
    iterations: int,
    rng: np.random.Generator,
    ordering: str = "degree",
    constraint: np.ndarray | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    pin_sweep: str | None = None,
) -> np.ndarray:
    """Compute a size-constrained clustering (coarsening use, Section III-A).

    The effective bound is ``U = max(max_v c(v), max_cluster_weight)`` so
    that every node fits in *some* cluster even on weighted coarse levels.
    """
    bound = max(int(graph.vwgt.max(initial=1)), int(max_cluster_weight))
    return size_constrained_label_propagation(
        graph,
        max_block_weight=bound,
        iterations=iterations,
        rng=rng,
        labels=None,
        ordering=ordering,
        refine=False,
        constraint=constraint,
        chunk_size=chunk_size,
        pin_sweep=pin_sweep,
    )


def label_propagation_refinement(
    graph: Graph,
    partition: np.ndarray,
    max_block_weight: int,
    iterations: int,
    rng: np.random.Generator,
    band_distance: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    pin_sweep: str | None = None,
) -> np.ndarray:
    """Improve a partition with label propagation (refinement use).

    Uses random node order (the paper's choice during uncoarsening) and
    the hard bound ``W = Lmax``; nodes of overloaded blocks are evicted to
    their strongest eligible other block.  ``band_distance`` optionally
    restricts the visit order to the nodes within that many hops of the
    boundary (PT-Scotch-style band refinement — faster, near-identical
    quality; see the band-refinement ablation bench): block weights stay
    exact and global, and nodes outside the band contribute weights and
    connections yet never move.
    """
    partition = np.asarray(partition, dtype=np.int64)
    band = None
    if band_distance is not None:
        band = band_nodes(graph, partition, band_distance)
        if band.size == 0:
            return partition.copy()
    return size_constrained_label_propagation(
        graph,
        max_block_weight=max_block_weight,
        iterations=iterations,
        rng=rng,
        labels=partition,
        ordering="random",
        refine=True,
        chunk_size=chunk_size,
        pin_sweep=pin_sweep,
        band=band,
    )
