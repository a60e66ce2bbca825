"""Simulated distributed-memory runtime and the parallel partitioner.

One communicator (:class:`SimComm`, the hub protocol of
:mod:`repro.dist.comm`) serves both kinds of rank; the two launchers
(:func:`run_spmd` on threads, :func:`run_spmd_processes` on OS processes
forked from one preloaded fork server, whose environment as at the first
process call every rank inherits) differ only in where the ranks run.
The parallel label propagation is the engine's
:func:`repro.engine.run_sclp` on a :class:`repro.engine.SpmdBackend`,
called by the V-cycle hooks of :mod:`repro.dist.dist_partitioner`.
"""

from .comm import (
    CollectiveMismatchError,
    CommStats,
    SimComm,
    World,
    payload_bytes,
)
from .dgraph import DistGraph, balanced_vtxdist
from .runtime import SpmdDeadlockError, SpmdResult, run_spmd, run_spmd_processes

__all__ = [
    "CollectiveMismatchError",
    "CommStats",
    "DistGraph",
    "SimComm",
    "SpmdDeadlockError",
    "SpmdResult",
    "World",
    "balanced_vtxdist",
    "payload_bytes",
    "run_spmd",
    "run_spmd_processes",
]


def __getattr__(name):
    # The parallel partitioner pulls in core/evolutionary; import lazily to
    # keep `repro.dist` usable for runtime-only consumers.
    if name in {"parallel_partition", "parhip_program"}:
        from . import dist_partitioner

        return getattr(dist_partitioner, name)
    if name in {"DistContraction", "parallel_contract", "parallel_uncoarsen", "lookup_coarse_values"}:
        from . import dist_contraction

        return getattr(dist_contraction, name)
    raise AttributeError(f"module 'repro.dist' has no attribute {name!r}")
