"""Backend-abstracted partition engine.

One SCLP phase loop (:func:`~repro.engine.sclp.run_sclp`) and one
multilevel V-cycle driver (:func:`~repro.engine.vcycle.run_vcycle`),
parameterized by the :class:`~repro.engine.backend.ExecutionBackend`
protocol; :class:`~repro.engine.backend.LocalBackend` binds them to the
sequential NumPy substrate, :class:`~repro.engine.backend.SpmdBackend`
to the simulated distributed-memory one, and
:class:`~repro.engine.backend.ProcessBackend` to real OS processes over
shared-memory CSR segments (``REPRO_BACKEND=local|spmd|process``, see
:func:`~repro.engine.backend.resolve_backend`).  The legacy entry
points in :mod:`repro.core` and :mod:`repro.dist` are thin wrappers
over these.
"""

from .backend import (
    BACKENDS,
    ExecutionBackend,
    LocalBackend,
    ProcessBackend,
    SpmdBackend,
    exchange_interface_labels,
    make_dist_backend,
    resolve_backend,
)
from .kernels import DEFAULT_CHUNK_SIZE, IterationWorkspace
from .sclp import run_sclp
from .vcycle import VcycleBackend, VcycleResult, run_coarsening, run_vcycle

__all__ = [
    "BACKENDS",
    "DEFAULT_CHUNK_SIZE",
    "ExecutionBackend",
    "IterationWorkspace",
    "LocalBackend",
    "ProcessBackend",
    "SpmdBackend",
    "exchange_interface_labels",
    "make_dist_backend",
    "resolve_backend",
    "run_sclp",
    "run_vcycle",
    "run_coarsening",
    "VcycleBackend",
    "VcycleResult",
]
