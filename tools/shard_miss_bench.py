"""Per-miss cost of mapping a shard file: ``np.load(mmap_mode="r")`` vs the store.

A shard miss of :class:`repro.graph.store.MmapShardStore` maps one
``.npy`` shard file.  This script times that map in isolation, on the
instance of the ``oocore_rmat17_mmap`` workload of ``benchmarks/e2e``
(``rmat_shards`` at scale 17 in 16 shards), over the access pattern of
one of its ops: 17 cyclic passes over the 16 shards, 272 misses, with
the last four mappings kept alive (the store's default LRU of 4).

Two ways to map a file are timed, each with and without touching every
page of the mapping (one load per 4 KiB, what a scan over the shard
costs in page faults):

* ``np.load``: ``np.load(path, mmap_mode="r", allow_pickle=False)`` and
  the dtype/size check the store made on every miss before;
* ``store``: ``MmapShardStore._mmap_file``, the store's own map (header
  parsed at the first map of a file, compared on every later one).

Usage::

    PYTHONPATH=src python tools/shard_miss_bench.py [--rounds 5] [--seed 201]

Each cell is the best and the median over ``--rounds`` rounds of the
272 misses, reported as microseconds per miss.
"""

from __future__ import annotations

import argparse
import collections
import statistics
import tempfile
import time

import numpy as np

from repro.generators.stream import rmat_shards
from repro.graph.store import MmapShardStore

SCALE = 17
SHARDS = 16
PASSES = 17
RESIDENT = 4
PAGE_ENTRIES = 4096 // 8


def np_load_map(path: str, expect: int) -> np.ndarray:
    arr = np.load(path, mmap_mode="r", allow_pickle=False)
    if arr.ndim != 1 or arr.dtype != np.int64 or arr.size != expect:
        raise ValueError(f"{path}: unexpected shard contents")
    return arr


def one_round(map_file, files, touch: bool) -> float:
    """Seconds per miss over ``PASSES`` cyclic passes of ``files``."""
    resident: collections.deque = collections.deque(maxlen=RESIDENT)
    sink = 0
    start = time.perf_counter()
    for _ in range(PASSES):
        for path, expect in files:
            arr = map_file(path, expect)
            if touch:
                sink += int(arr[::PAGE_ENTRIES].sum())
            resident.append(arr)
    elapsed = time.perf_counter() - start
    assert sink >= 0
    return elapsed / (PASSES * len(files))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=201)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        rmat_shards(tmp, SCALE, seed=args.seed, nodes_per_shard=2**SCALE // SHARDS)
        store = MmapShardStore.open(tmp, max_resident_shards=RESIDENT)
        files = [(path, expect) for expect, path, _ in store._shard_files]
        ways = {"np.load": np_load_map, "store": store._mmap_file}
        print(f"{len(files)} shards, {store.num_arcs} arcs, "
              f"{PASSES * len(files)} misses per round, {args.rounds} rounds")
        print(f"{'map':8s} {'pages':6s} {'best us/miss':>13s} {'median us/miss':>15s}")
        for touch in (False, True):
            times: dict[str, list[float]] = {name: [] for name in ways}
            for _ in range(args.rounds):
                # alternate the ways inside a round so drift hits both
                for name, map_file in ways.items():
                    times[name].append(one_round(map_file, files, touch))
            for name, samples in times.items():
                print(f"{name:8s} {'touch' if touch else 'none':6s} "
                      f"{min(samples) * 1e6:13.1f} "
                      f"{statistics.median(samples) * 1e6:15.1f}")
        store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
