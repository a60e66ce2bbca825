"""The KaFFPaE combine operator (Section II-C).

Two parent partitions P1, P2 are combined by running the multilevel
engine with every edge that is cut in *either* parent barred from
contraction.  Equivalently: coarsening may only merge nodes that share
their block in both parents — i.e. the *overlay* clustering
``overlay(v) = P1(v) * k + P2(v)`` must never be spanned.  The better
parent is applied to the coarsest graph as the initial partition (legal
because none of its cut edges were contracted), and since refinement
never worsens, the offspring is at least as good as the better parent.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..graph.quotient import normalize_labels
from ..kaffpa.driver import KaffpaOptions, kaffpa_partition
from .population import Individual

__all__ = ["overlay_labels", "combine"]


def overlay_labels(p1: np.ndarray, p2: np.ndarray, k: int) -> np.ndarray:
    """Intersection clustering of two partitions (normalised labels).

    An edge crosses the overlay iff it is a cut edge of P1 or of P2.
    """
    raw = np.asarray(p1, dtype=np.int64) * k + np.asarray(p2, dtype=np.int64)
    labels, _ = normalize_labels(raw)
    return labels


def combine(
    graph: Graph,
    k: int,
    lmax: int,
    rng: np.random.Generator,
    parent_a: Individual,
    parent_b: Individual,
    options: KaffpaOptions | None = None,
) -> Individual:
    """Produce an offspring at least as fit as the better parent."""
    better = parent_a if not parent_b.dominates(parent_a) else parent_b
    constraint = overlay_labels(parent_a.partition, parent_b.partition, k)
    offspring = kaffpa_partition(
        graph,
        k,
        lmax,
        rng,
        options=options,
        constraint=constraint,
        seed_partition=better.partition,
    )
    child = Individual.from_partition(graph, offspring, k, lmax)
    # Refinement and seed logic guarantee non-worsening; keep the better
    # parent defensively if numerical tie-breaking ever produced a tie.
    return child if not better.dominates(child) else better
