"""Microseconds per collective on thread and process ranks.

Times four collectives of :class:`repro.dist.comm.SimComm` in a loop on
``p`` ranks of each kind (:func:`~repro.dist.runtime.run_spmd` threads,
:func:`~repro.dist.runtime.run_spmd_processes` processes):

* ``allreduce 8 B``: one ``int64``;
* ``alltoall 8 KiB``: an 8 KiB array to every rank, itself included;
* ``alltoall 512 KiB``: a 512 KiB array to every rank;
* ``allgather 512 KiB``: a 512 KiB array from every rank, which every
  rank receives whole (on process ranks the hub pickles that list once).

Each rank times every call after a warm-up; a row is the largest of the
ranks' medians, in microseconds.  Run it with another tree's ``src`` on
``PYTHONPATH`` to compare two trees on the same host.

Usage::

    PYTHONPATH=src python tools/collective_latency.py [--pes 2 4] [--rounds 200]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.dist import run_spmd, run_spmd_processes

#: (collective, bytes per destination, or per rank for allgather)
ROWS = (("allreduce", 8), ("alltoall", 8 << 10), ("alltoall", 512 << 10),
        ("allgather", 512 << 10))
WARMUP = 10


def _median_call(comm, op: str, nbytes: int, rounds: int) -> float:
    """This rank's median seconds per call of ``op``."""
    payload = np.zeros(nbytes // 8, dtype=np.int64)
    if op == "allreduce":
        def call():
            comm.allreduce(payload)
    elif op == "allgather":
        def call():
            comm.allgather(payload)
    else:
        def call():
            comm.alltoall([payload] * comm.size)
    for _ in range(WARMUP):
        call()
    comm.barrier()
    seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pes", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--rounds", type=int, default=200,
                        help="timed calls per row (a tenth of it at 512 KiB)")
    args = parser.parse_args()
    launchers = (("thread", run_spmd), ("process", run_spmd_processes))
    print(f"{'collective':<18} {'ranks':<8} {'p':>2} {'us/call':>9}")
    for op, nbytes in ROWS:
        rounds = args.rounds if nbytes < (64 << 10) else max(10, args.rounds // 10)
        for kind, launch in launchers:
            for p in args.pes:
                out = launch(p, _median_call, op, nbytes, rounds)
                label = f"{op} {nbytes >> 10} KiB" if nbytes >= 1024 else f"{op} {nbytes} B"
                print(f"{label:<18} {kind:<8} {p:>2} {max(out.per_rank) * 1e6:>9.0f}")


if __name__ == "__main__":
    main()
