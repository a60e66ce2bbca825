"""Backend-abstracted partition engine.

One SCLP phase loop (:func:`~repro.engine.sclp.run_sclp`), written
against the :class:`~repro.engine.backend.ExecutionBackend` protocol:
:class:`~repro.engine.backend.LocalBackend` binds it to the sequential
NumPy substrate and :class:`~repro.engine.backend.SpmdBackend` to the
distributed-memory one, whether its ranks are lock-step threads or real
OS processes over shared-memory CSR segments
(``backend='spmd'|'process'``, see
:func:`~repro.engine.backend.resolve_backend`).  And one multilevel
V-cycle driver (:func:`~repro.engine.vcycle.run_vcycle`, iterated by
:func:`~repro.engine.vcycle.iterate_vcycles`), written against the
:class:`~repro.engine.vcycle.VcycleBackend` hooks that
:mod:`repro.core.multilevel` and :mod:`repro.dist.dist_partitioner`
implement.  Every label propagation of the program — those hooks,
modularity clustering's core groups, the flat out-of-core pass — calls
``run_sclp`` on a backend itself, with its own start labels, bound and
tie seed.
"""

from .backend import (
    BACKENDS,
    ExecutionBackend,
    LocalBackend,
    SpmdBackend,
    exchange_interface_labels,
    resolve_backend,
)
from .kernels import DEFAULT_CHUNK_SIZE
from .sclp import run_sclp
from .vcycle import VcycleBackend, VcycleResult, iterate_vcycles, run_coarsening, run_vcycle

__all__ = [
    "BACKENDS",
    "DEFAULT_CHUNK_SIZE",
    "ExecutionBackend",
    "LocalBackend",
    "SpmdBackend",
    "exchange_interface_labels",
    "iterate_vcycles",
    "resolve_backend",
    "run_sclp",
    "run_vcycle",
    "run_coarsening",
    "VcycleBackend",
    "VcycleResult",
]
