"""Milliseconds per call of the quotient build, level by level.

:func:`repro.native.quotient_arcs` builds every coarse graph of the
sequential V-cycles.  This script records the arrays of each call the
coarsening makes during one ``partition_graph`` op, on the instances of
two workloads of ``benchmarks/e2e`` (same generator, scale, seed and
call):

* ``rmat``: ``rmat(15)``, ``k = 8``, preset ``fast`` (``seq_rmat15_fast``);
* ``delaunay``: ``delaunay(14)``, ``k = 32``, preset ``eco``
  (``seq_del14_eco_k32``).

It then times the kernel alone on each recorded call, ``--rounds`` times,
and prints one row per level of each V-cycle: the fine and coarse sizes,
the best and the median milliseconds, and a digest of the three output
arrays, so that two trees can be compared on the same inputs and shown
to return the same quotient.

Usage::

    PYTHONPATH=src python tools/quotient_bench.py [--rounds 20] [--seed 401]
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import time

import numpy as np

from repro import generators, native
from repro.api import partition_graph
from repro.core import LocalVcycleBackend
from repro.graph import normalize_labels

EPSILON = 0.03

#: name -> (generator, scale, partition_graph arguments)
INSTANCES = {
    "rmat": ("rmat", 15, {"k": 8, "preset": "fast"}),
    "delaunay": ("delaunay", 14, {"k": 32, "preset": "eco"}),
}


def record_levels(graph, call: dict, seed: int) -> list[tuple]:
    """``(fine graph, mapping, n_coarse)`` of every level the V-cycles of
    one op contract, in call order: the arguments of their
    ``native.quotient_arcs`` calls."""
    levels: list[tuple] = []
    contract = LocalVcycleBackend.contract

    def recorder(self, labels):
        levels.append((self.current, *normalize_labels(labels)))
        return contract(self, labels)

    LocalVcycleBackend.contract = recorder
    try:
        partition_graph(graph, seed=seed, epsilon=EPSILON, **call)
    finally:
        LocalVcycleBackend.contract = contract
    return levels


def digest(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:10]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=401,
                        help="instance and partition seed (a bench seed)")
    args = parser.parse_args()
    print(f"{'instance':9s} {'cycle':>5s} {'level':>5s} {'n':>7s} {'arcs':>8s} "
          f"{'n_c':>6s} {'arcs_c':>7s} {'best ms':>8s} {'median ms':>9s}  digest")
    for name, (generator, scale, call) in INSTANCES.items():
        graph = getattr(generators, generator)(scale, seed=args.seed)
        levels = record_levels(graph, call, args.seed)
        cycle, level, total = -1, 0, 0.0
        for fine, mapping, n_coarse in levels:
            if fine is levels[0][0]:  # every V-cycle starts from the input's connected part
                cycle, level = cycle + 1, 0
            arrays = (fine.xadj, fine.adjncy, fine.adjwgt, mapping, n_coarse)
            times = []
            for _ in range(args.rounds):
                start = time.perf_counter()
                out = native.quotient_arcs(*arrays)
                times.append(time.perf_counter() - start)
            total += statistics.median(times)
            print(f"{name:9s} {cycle:5d} {level:5d} {fine.num_nodes:7d} {fine.num_arcs:8d} "
                  f"{n_coarse:6d} {out[1].size:7d} {min(times) * 1e3:8.2f} "
                  f"{statistics.median(times) * 1e3:9.2f}  {digest(out)}")
            level += 1
        print(f"{name:9s} {len(levels)} calls, {total * 1e3:.2f} ms of medians in all")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
