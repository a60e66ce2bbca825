"""Delaunay triangulation graphs (the paper's ``delX`` family).

``delX`` is the Delaunay triangulation of ``2^X`` random points in the
unit square (Table I).  We use SciPy's Qhull binding to triangulate and
extract the edge set; the result is a planar mesh-type network with mean
degree just under 6 and no community structure — the class of inputs on
which the paper's cluster coarsening has *no* advantage over
matching-based coarsening.
"""

from __future__ import annotations

import numpy as np

from ..graph.build import from_coo
from ..graph.csr import Graph

__all__ = ["delaunay", "delaunay_graph"]


def delaunay_graph(
    num_nodes: int,
    seed: int = 0,
    name: str | None = None,
    return_positions: bool = False,
) -> Graph | tuple[Graph, np.ndarray]:
    """Delaunay triangulation of ``num_nodes`` uniform points in the unit square."""
    from scipy.spatial import Delaunay

    if num_nodes < 3:
        raise ValueError("a Delaunay triangulation needs at least three points")
    rng = np.random.default_rng(seed)
    pos = rng.random((num_nodes, 2))
    tri = Delaunay(pos)
    # Each simplex contributes its three sides; duplicates merge downstream.
    # Qhull hands back int32 indices: widen before forming lo * n + hi,
    # which overflows int32 from 2^16 points up.
    simplices = tri.simplices.astype(np.int64)
    rows = np.concatenate([simplices[:, 0], simplices[:, 1], simplices[:, 2]])
    cols = np.concatenate([simplices[:, 1], simplices[:, 2], simplices[:, 0]])
    # from_coo merges duplicate undirected edges by *summing* weights; to keep
    # unit weights, deduplicate canonical pairs first.
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    keys = np.unique(lo * num_nodes + hi)
    graph = from_coo(
        num_nodes, keys // num_nodes, keys % num_nodes, name=name or f"del-n{num_nodes}"
    )
    if return_positions:
        return graph, pos
    return graph


def delaunay(exponent: int, seed: int = 0, **kwargs) -> Graph:
    """The paper's ``delX`` notation: Delaunay triangulation of ``2^X`` points."""
    return delaunay_graph(2**exponent, seed=seed, name=f"del{exponent}", **kwargs)
