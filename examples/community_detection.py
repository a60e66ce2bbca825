#!/usr/bin/env python3
"""Community detection with size-constrained label propagation.

The paper's conclusion sketches generalising the system to modularity
clustering.  This example shows the clustering machinery standalone:

1. recover planted communities from a stochastic block model and score
   them against the ground truth;
2. cluster a social-network stand-in at several size constraints and
   watch the resolution change (U is a resolution knob: small U = many
   small clusters, large U = few big ones);
3. run the same clustering through the *parallel* label propagation on
   the simulated runtime and confirm the distributed result is of equal
   quality.

Run:  python examples/community_detection.py
"""

from __future__ import annotations

import numpy as np

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.generators import planted_partition, powerlaw_cluster
from repro.metrics import modularity


def cluster(graph, bound: int, iterations: int, seed: int) -> np.ndarray:
    """Size-constrained label propagation from singleton clusters; every
    node weighs 1 here, so no cluster grows beyond ``bound`` nodes."""
    rng = np.random.default_rng(seed)
    singletons = np.arange(graph.num_nodes, dtype=np.int64)
    return run_sclp(LocalBackend(graph, rng), singletons, bound, iterations,
                    tie_seed=int(rng.integers(0, 2**63 - 1)))


def pair_agreement(labels: np.ndarray, truth: np.ndarray, samples: int = 20000) -> float:
    """Rand-style agreement between a clustering and the ground truth."""
    rng = np.random.default_rng(0)
    n = labels.size
    u = rng.integers(0, n, size=samples)
    v = rng.integers(0, n, size=samples)
    same_truth = truth[u] == truth[v]
    same_labels = labels[u] == labels[v]
    return float((same_truth == same_labels).mean())


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Planted communities
    # ------------------------------------------------------------------
    print("1) Recovering planted communities (8 blocks of 96 nodes) ...")
    graph, truth = planted_partition(8, 96, p_in=0.25, p_out=0.003, seed=1)
    labels = cluster(graph, 96, iterations=8, seed=1)
    print(f"   clusters found : {np.unique(labels).size} (truth: 8)")
    print(f"   modularity     : {modularity(graph, labels):.3f} "
          f"(truth: {modularity(graph, truth):.3f})")
    print(f"   pair agreement : {pair_agreement(labels, truth):.1%}")

    # ------------------------------------------------------------------
    # 2. The size constraint as a resolution knob
    # ------------------------------------------------------------------
    print("\n2) Size constraint as resolution knob on a social network ...")
    social = powerlaw_cluster(4096, attach=6, triad_probability=0.7, seed=2)
    for bound in (16, 64, 256, 1024):
        labels = cluster(social, bound, iterations=5, seed=2)
        sizes = np.bincount(labels)
        sizes = sizes[sizes > 0]
        print(f"   U={bound:5d}: {sizes.size:5d} clusters, "
              f"largest {sizes.max():5d}, modularity {modularity(social, labels):.3f}")

    # ------------------------------------------------------------------
    # 3. The same clustering, distributed
    # ------------------------------------------------------------------
    print("\n3) Parallel label propagation on 4 simulated PEs ...")
    vtxdist = balanced_vtxdist(social.num_nodes, 4)

    def program(comm):
        dgraph = DistGraph.from_global(social, vtxdist, comm.rank)
        init = dgraph.to_global(np.arange(dgraph.n_total))
        labels = run_sclp(SpmdBackend(dgraph, comm), init, 256, 5,
                          tie_seed=int(comm.rng.integers(0, 2**63 - 1)))
        return dgraph.gather_global(comm, labels)

    result = run_spmd(4, program, seed=2)
    clustering = result.value
    print(f"   distributed clustering: {np.unique(clustering).size} clusters, "
          f"modularity {modularity(social, clustering):.3f}")


if __name__ == "__main__":
    main()
