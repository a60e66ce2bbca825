"""The compiled SCLP scan: build on first use, cache per user, fall back.

``_scan.c`` (next to this file) is compiled once per machine with the
host ``cc`` into ``~/.cache/repro/native`` and loaded through
:mod:`ctypes`: one loader, one shared object, the symbols bound in
:func:`_load`.  :func:`scan_chunk` here and
:func:`repro.engine.kernels.scan_chunk` share one signature and return
bit-identical arrays; :class:`PhaseScan` runs a whole phase of
:func:`repro.engine.sclp.run_sclp` in one call and leaves every table as
that function's Python chunk loop would.  :func:`select` picks by
availability alone — there is no knob.  Anything that keeps the kernel
from loading (no compiler, a failed build, an unwritable or untrusted
cache) selects the NumPy kernels with one :class:`RuntimeWarning` per
process naming the cause.

The shared object's name is keyed by the source, the flags, the
compiler's version banner and the platform, so a new checkout or a new
compiler builds its own file and never loads a stale one.  It is written
under a temporary name and ``os.replace``\\ d into place: concurrent
first users (ranks, test workers) each build their own copy and the last
rename wins, none can observe a partial file.  A cache directory or
shared object that is not owned by this user, or that group or others
may write, is refused — loading it would run their code.

``ctypes`` releases the GIL for the duration of a call, so the ranks of
the thread backend overlap for a whole phase.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import kernels
from .kernels import IterationWorkspace

__all__ = [
    "Resolution", "resolve", "adopt", "select", "scan_chunk", "PhaseScan",
    "cache_dir",
]

SOURCE_NAME = "_scan.c"
#: no ``-march=native`` (the cache may be shared by hosts) and no
#: fast-math (the float ``cap`` comparison must stay IEEE-exact)
CFLAGS = ("-O2", "-fPIC", "-shared")


@dataclass(frozen=True)
class Resolution:
    """Which kernel this process runs: the shared object, or why not."""

    path: str | None  #: the loaded shared object; ``None`` on fallback
    reason: str | None  #: why the NumPy kernels run; ``None`` when native

    @property
    def kernel(self) -> str:
        return "numpy" if self.path is None else "native"

    def header(self) -> dict[str, str]:
        """The trace-header fields recording this choice (``run.json``)."""
        if self.path is not None:
            return {"lp_kernel": "native"}
        return {"lp_kernel": "numpy", "lp_kernel_fallback": str(self.reason)}


class _Unavailable(Exception):
    """The native kernel cannot be used; ``str(exc)`` is the reason."""


_lock = threading.Lock()
_resolution: Resolution | None = None
_lib: ctypes.CDLL | None = None


def cache_dir() -> Path:
    """The per-user directory holding built kernels."""
    return Path.home() / ".cache" / "repro" / "native"


def _require_private(path: Path) -> None:
    """Refuse a path another user owns or may write."""
    if not hasattr(os, "getuid"):
        raise _Unavailable("no POSIX ownership on this platform")
    info = path.stat()
    if info.st_uid != os.getuid():
        raise _Unavailable(f"{path} is not owned by uid {os.getuid()}")
    if info.st_mode & 0o022:
        raise _Unavailable(f"{path} is group- or world-writable")


def _build() -> Path:
    """The shared object for this source/compiler/platform, built if absent."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    source = resources.files(__package__).joinpath(SOURCE_NAME).read_bytes()
    banner = subprocess.run(
        [cc, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.sha256()
    for part in (source, " ".join(CFLAGS).encode(), banner,
                 f"{sys.platform}-{platform.machine()}".encode()):
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    directory = cache_dir()
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    _require_private(directory)
    target = directory / f"scan-{key.hexdigest()[:20]}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-o", tmp, "-"],
            input=source, capture_output=True, timeout=300,
        )
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise _Unavailable(
                f"{cc} exited with status {done.returncode}"
                + (f": {tail[0]}" if tail else "")
            )
        os.chmod(tmp, 0o700)  # whatever the umask, nobody else may write it
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


class _PhaseTables(ctypes.Structure):
    """``scan_phase_t`` of ``_scan.c``, field for field."""

    _fields_ = [
        *((name, _I64) for name in ("n_local", "n_total", "n_arcs")),
        *((name, _PTR) for name in (
            "xadj", "nbr", "wgt", "vwgt", "constraint", "interface", "labels")),
        *((name, _I64) for name in ("space", "bound", "refine")),
        ("tie_seed", ctypes.c_uint64), ("tie_base", _I64),
        ("used", _PTR), ("cap", _PTR), ("cap_is_float", _I64),
        *((name, _PTR) for name in (
            "exact", "local_out", "evict_budget", "active", "next_active",
            "changed_mask", "acc", "mark", "touched", "nodes", "begin",
            "count", "own", "target", "isolated", "risky", "evicting")),
        *((name, _I64) for name in ("moved", "scanned", "arcs", "chunks")),
    ]


def _load(path: Path) -> ctypes.CDLL:
    _require_private(path)
    lib = ctypes.CDLL(str(path))
    lib.scan_phase_tables_size.restype = _I64
    lib.scan_phase_tables_size.argtypes = []
    if lib.scan_phase_tables_size() != ctypes.sizeof(_PhaseTables):
        raise _Unavailable(f"{path} and _PhaseTables disagree on scan_phase_t")
    lib.scan_phase.restype = _I64
    lib.scan_phase.argtypes = [ctypes.POINTER(_PhaseTables), _I64, _PTR, _I64]
    lib.scan_chunk.restype = _I64
    lib.scan_chunk.argtypes = [
        _I64, _PTR, _PTR, _PTR, _PTR, _PTR,  # n_chunk nodes begin count nbr wgt
        _I64, _PTR, _PTR, _PTR, _PTR, _PTR,  # n_total labels constraint vwgt used cap
        ctypes.c_int, _PTR, ctypes.c_uint64, _I64,  # cap_is_float evicting seed base
        _I64, _PTR, _PTR, _PTR, _PTR, _PTR,  # space acc mark touched target risky
    ]
    lib.tie_hash.restype = None
    lib.tie_hash.argtypes = [ctypes.c_uint64, _I64, _PTR, _PTR, _PTR]
    return lib


def resolve() -> Resolution:
    """Build and load the kernel once per process; never raises.

    The process backend's parent calls this before it spawns, and hands
    the result to :func:`adopt` in every rank, so ranks neither compile
    nor warn.
    """
    global _resolution, _lib
    with _lock:
        if _resolution is None:
            try:
                path = _build()
                _lib = _load(path)
                _resolution = Resolution(str(path), None)
            # RuntimeError: Path.home() when no home directory is known
            except (_Unavailable, OSError, RuntimeError,
                    subprocess.SubprocessError) as exc:
                reason = str(exc) or type(exc).__name__
                _resolution = Resolution(None, reason)
                warnings.warn(
                    f"native SCLP kernel unavailable ({reason}); "
                    "running the NumPy kernels instead",
                    RuntimeWarning, stacklevel=2,
                )
        return _resolution


def adopt(resolution: Resolution) -> None:
    """Take over a parent process's :func:`resolve` result (worker side)."""
    global _resolution, _lib
    with _lock:
        if resolution.path is not None:
            try:
                _lib = _load(Path(resolution.path))
            except (_Unavailable, OSError) as exc:
                resolution = Resolution(None, str(exc) or type(exc).__name__)
        _resolution = resolution


def select():
    """``(scan_chunk, phase_scan, resolution)`` for this process.

    ``scan_chunk`` has one signature either way.  ``phase_scan`` is
    :class:`PhaseScan` when the kernel loaded and ``None`` otherwise: the
    caller then runs its own chunk loop over ``scan_chunk``.
    """
    resolution = resolve()
    if resolution.path is None:
        return kernels.scan_chunk, None, resolution
    return scan_chunk, PhaseScan, resolution


def _ptr(arr: np.ndarray, dtype, size: int | None = None) -> int:
    """Address of a C-contiguous ``dtype`` array (of ``size`` entries)."""
    if (
        type(arr) is not np.ndarray or arr.dtype != dtype
        or not arr.flags.c_contiguous
        or (size is not None and arr.size != size)
    ):
        raise TypeError(
            f"the native scan needs a C-contiguous {np.dtype(dtype).name} "
            f"ndarray" + ("" if size is None else f" of {size} entries")
        )
    return arr.ctypes.data


def scan_chunk(
    nodes: np.ndarray,
    xadj: np.ndarray,
    adjncy,
    adjwgt,
    labels: np.ndarray,
    constraint: np.ndarray | None,
    vwgt: np.ndarray,
    used: np.ndarray,
    cap: np.ndarray,
    evicting: np.ndarray | None,
    tie_seed: int,
    tie_base: int,
    space: int,
    ws: IterationWorkspace,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`repro.engine.kernels.scan_chunk`, compiled (same contract).

    A resident graph's CSR is passed as is; an out-of-core store serves
    the chunk's arcs through the same two ``gather`` calls the NumPy
    path makes, and the kernel reads the gathered block.
    """
    n_chunk = nodes.size
    begin = xadj[nodes]
    count = xadj[nodes + 1]
    count -= begin
    if type(adjncy) is not np.ndarray:
        # The chunk's arcs, in the order plan_chunk would gather them.
        local = np.cumsum(count)
        local -= count
        arc_idx = np.repeat(begin - local, count)
        arc_idx += np.arange(arc_idx.size, dtype=np.int64)
        adjncy, adjwgt = adjncy[arc_idx], adjwgt[arc_idx]
        begin = local
    n_total = labels.size
    _check_tables(space, used, cap)
    target = np.empty(n_chunk, dtype=np.int64)
    risky = np.empty(n_chunk, dtype=bool)
    arcs = _lib.scan_chunk(
        n_chunk, _ptr(nodes, np.int64), _ptr(begin, np.int64, n_chunk),
        _ptr(count, np.int64, n_chunk), _ptr(adjncy, np.int64),
        _ptr(adjwgt, np.int64, adjncy.size),
        n_total, _ptr(labels, np.int64),
        None if constraint is None else _ptr(constraint, np.int64, n_total),
        _ptr(vwgt, np.int64, n_total), _ptr(used, np.int64),
        _ptr(cap, cap.dtype), int(cap.dtype == np.float64),
        None if evicting is None else _ptr(evicting, np.bool_, n_chunk),
        tie_seed, tie_base, space,
        ws.zeros("scan.acc", space, np.int64).ctypes.data,
        ws.zeros("scan.mark", space, np.uint8).ctypes.data,
        ws.buf("scan.touched", space, np.int64).ctypes.data,
        target.ctypes.data, risky.ctypes.data,
    )
    if arcs < 0:
        raise _out_of_range(n_total, space)
    return target, risky, int(arcs)


def _check_tables(space: int, used: np.ndarray, cap: np.ndarray) -> None:
    if cap.dtype not in (np.int64, np.float64):
        raise TypeError(f"cap must be int64 or float64, got {cap.dtype}")
    if cap.size < space or used.size < space:
        raise ValueError("used/cap tables are shorter than the label space")


def _out_of_range(n_total: int, space: int) -> ValueError:
    return ValueError(
        "the native scan met a node, neighbour or label index outside "
        f"its table (n_total={n_total}, label space={space})"
    )


class PhaseScan:
    """One compiled call per SCLP phase (``scan_phase`` of ``_scan.c``).

    Bound to one :func:`~repro.engine.sclp.run_sclp` call: the CSR of a
    resident graph and the arrays that call mutates in place are checked
    (type, dtype, contiguity, length) and their addresses taken here,
    once; a phase passes only what ``run_sclp`` rebinds between phases.
    ``window`` is the largest chunk a phase will ask for; ``frontier``
    says whether phases filter by, and mark, the active set.  A call visits
    ``order`` exactly as the Python chunk loop of ``run_sclp`` does —
    which is its fallback and its oracle — and returns that loop's
    ``(moved, scanned, arcs, chunks)``.
    """

    def __init__(self, xadj, adjncy, adjwgt, labels, constraint, vwgt,
                 interface, used, local_out, changed_mask, *, n_local: int,
                 space: int, bound: int, refine: bool, frontier: bool,
                 tie_seed: int, tie_base: int, window: int,
                 ws: IterationWorkspace) -> None:
        n_total = labels.size
        if not 0 <= n_local <= n_total:
            raise ValueError(f"n_local={n_local} outside [0, {n_total}]")
        self._window, self._used, self._frontier = window, used, frontier
        scratch = {
            "acc": ws.zeros("scan.acc", space, np.int64),
            "mark": ws.zeros("scan.mark", space, np.uint8),
            "touched": ws.buf("scan.touched", space, np.int64),
            **{name: ws.buf(f"phase.{name}", window, np.int64) for name in (
                "nodes", "begin", "count", "own", "target", "isolated")},
            **{name: ws.buf(f"phase.{name}", window, np.uint8)
               for name in ("risky", "evicting")},
        }
        # the struct holds addresses only: keep their owners alive with it
        self._owners = (xadj, adjncy, adjwgt, labels, constraint, vwgt,
                        interface, used, local_out, changed_mask, scratch)
        self._tables = _PhaseTables(
            n_local=n_local, n_total=n_total, n_arcs=adjncy.size,
            xadj=_ptr(xadj, np.int64, n_local + 1), nbr=_ptr(adjncy, np.int64),
            wgt=_ptr(adjwgt, np.int64, adjncy.size),
            vwgt=_ptr(vwgt, np.int64, n_total),
            constraint=(None if constraint is None
                        else _ptr(constraint, np.int64, n_total)),
            interface=_ptr(interface, np.bool_, n_local),
            labels=_ptr(labels, np.int64), space=space, bound=bound,
            refine=refine, tie_seed=tie_seed, tie_base=tie_base,
            used=_ptr(used, np.int64),
            local_out=(None if local_out is None
                       else _ptr(local_out, np.int64, space)),
            changed_mask=_ptr(changed_mask, np.bool_, n_local),
            **{name: arr.ctypes.data for name, arr in scratch.items()},
        )

    def __call__(self, order, chunk: int, cap, exact, evict_budget, active,
                 next_active) -> tuple[int, int, int, int]:
        """Run one phase.  ``exact``/``evict_budget`` are ``None`` outside
        the budget-share regime; a full sweep leaves the two masks alone."""
        t = self._tables
        space, n_local = t.space, t.n_local
        if not 1 <= chunk <= self._window:
            raise ValueError(f"chunk {chunk} outside [1, {self._window}]")
        _check_tables(space, self._used, cap)
        if exact is not None and t.local_out is None:
            raise ValueError("budget shares (exact) need the local_out table")
        t.cap, t.cap_is_float = _ptr(cap, cap.dtype), cap.dtype == np.float64
        t.exact = None if exact is None else _ptr(exact, np.int64, space)
        t.evict_budget = (None if exact is None
                          else _ptr(evict_budget, np.float64, space))
        if self._frontier:
            t.active = _ptr(active, np.bool_, n_local)
            t.next_active = _ptr(next_active, np.bool_, n_local)
        if _lib.scan_phase(t, order.size, _ptr(order, np.int64), chunk) < 0:
            raise _out_of_range(t.n_total, space)
        return t.moved, t.scanned, t.arcs, t.chunks
