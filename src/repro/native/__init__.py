"""The compiled kernels: build on first use, cache per user, required.

The C sources next to this file (:data:`SOURCE_NAMES`) are compiled once
per machine, in one ``cc`` invocation, into ``~/.cache/repro/native`` and
loaded through :mod:`ctypes`: one loader, one shared object.  Every
exported (non-static) C function is bound by :func:`_load` with the
prototype it has in the source, and ``scan_phase_t`` is built from its
``typedef`` there: each signature is declared once, in C, and every
value crossing it is an integer or an address.  Each kernel has this one
implementation in the package; the Python loops it replaced live on
under ``tests/`` as its oracles, which return the same arrays bit for
bit:

* ``_scan.c`` — :class:`PhaseScan`, an SCLP phase of
  :func:`repro.engine.sclp.run_sclp` in one call per bound arc block;
* ``_coarse.c`` — the loops of the coarsest level: :func:`quotient_arcs`
  (:func:`repro.graph.quotient.contract`), :class:`GrowBisection`
  (:mod:`repro.kaffpa.initial`), :func:`kway_refine_pass`
  (:mod:`repro.kaffpa.kway_fm`), :func:`match_heavy_edges`
  (:mod:`repro.kaffpa.matching`).  Random draws stay in Python and are
  passed in.  And :func:`partition_quality`, the one sweep behind every
  cut, boundary count and communication volume of :mod:`repro.metrics`
  (and :func:`repro.dist.dist_partitioner.distributed_edge_cut`);
  :func:`group_arcs`, every arc list -> canonical CSR
  (:func:`repro.graph.build.group_arcs`); :func:`ghost_layout`, every
  PE's ghosts and send lists (:class:`repro.dist.DistGraph`).
  Their twins are in ``tests/engine/numpy_kernels.py``;
* ``_metis.c`` — :func:`parse_metis`, the body of a METIS text file to
  node weights and an arc list, checked line by line
  (:func:`repro.graph.io.read_metis`); its twin is
  ``tests/graph/metis_twin.py``.

Nothing is built at import: the first kernel call of a process builds or
finds the shared object (:func:`resolve`).  Whatever keeps it from loading
— no compiler on ``PATH``, a failed build, an unwritable or untrusted
cache — raises :class:`KernelUnavailable` naming the cause, at that call
and at every later one.

This package sits below :mod:`repro.graph` (it imports nothing of the
program), because ``graph``, ``kaffpa`` and ``engine`` all call it.

The shared object's name is keyed by the source, the flags, the
compiler's version banner and the platform, so a new checkout or a new
compiler builds its own file and never loads a stale one.  It is written
under a temporary name and ``os.replace``\\ d into place: concurrent
first users (ranks, test workers) each build their own copy and the last
rename wins, none can observe a partial file.  A cache directory or
shared object that is not owned by this user, or that group or others
may write, is refused — loading it would run their code.

``ctypes`` releases the GIL for the duration of a call, so the ranks of
the thread backend overlap for a whole phase, and for KaFFPaE's node
loops.  The C side keeps no static state: scratch is allocated here, per
call or per bound object.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "KernelUnavailable", "resolve", "adopt", "cache_dir", "source",
    "PhaseScan", "quotient_arcs", "group_arcs", "GhostLayout", "ghost_layout",
    "GrowBisection", "kway_refine_pass", "match_heavy_edges",
    "partition_quality", "parse_metis",
]

#: concatenated into one translation unit, in this order
SOURCE_NAMES = ("_scan.c", "_coarse.c", "_metis.c")
#: no ``-march=native``: the cache may be shared by hosts
CFLAGS = ("-O2", "-fPIC", "-shared")


class KernelUnavailable(RuntimeError):
    """The compiled kernels cannot be built or loaded on this host."""


class _Unavailable(Exception):
    """The shared object cannot be used; ``str(exc)`` is the reason."""


_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_PhaseTables: type | None = None  # scan_phase_t, built by _load
_path: str | None = None
_failure: str | None = None  # why this process cannot load it, once known


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


def source() -> bytes:
    """What is compiled: the sources, one after the other."""
    here = resources.files(__package__)
    return b"\n".join(here.joinpath(name).read_bytes() for name in SOURCE_NAMES)


def _build() -> Path:
    """The shared object for this source/compiler/platform, built if absent."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    code = source()
    banner = subprocess.run(
        [cc, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.sha256()
    for part in (code, " ".join(CFLAGS).encode(), banner,
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
            input=code, capture_output=True, timeout=300,
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
_INT64_MAX = 2 ** 63 - 1
#: the C types a prototype or ``scan_phase_t`` may use (a pointer is an address)
_C_TYPES = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "void": None}


def _declared(statement: str) -> list[tuple[str, type]]:
    """``(name, ctypes type)`` of each declarator of one C declaration,
    ``int64_t n`` or ``const int64_t *nbr, *wgt``."""
    base, declarators = re.fullmatch(r"\s*(?:const\s+)?(\w+)(.*)", statement,
                                     re.S).groups()
    return [(name, _PTR if stars else _C_TYPES[base])
            for stars, name in re.findall(r"(\**)\s*(\w+)", declarators)]


def _declarations(code: str) -> tuple[dict[str, tuple], list[tuple[str, type]]]:
    """What the C ``code`` declares, as ctypes types: ``restype, argtypes``
    of every exported (non-static) function, and the fields of
    ``scan_phase_t`` in order."""
    code = re.sub(r"/\*.*?\*/", " ", code, flags=re.S)
    functions = {
        name: (_C_TYPES[kind], [] if params.strip() == "void" else
               [_declared(param)[0][1] for param in params.split(",")])
        for kind, name, params in re.findall(
            r"^(int64_t|void) (\w+)\(([^)]*)\)\s*\{", code, re.M)
    }
    body = re.search(r"typedef struct \{(.*?)\} scan_phase_t;", code, re.S)
    fields = [field for statement in body.group(1).split(";")[:-1]
              for field in _declared(statement)]
    return functions, fields


def _load(path: Path) -> tuple[ctypes.CDLL, type]:
    """The shared object at ``path`` with every exported function bound,
    and the ctypes twin of its ``scan_phase_t``."""
    _require_private(path)
    functions, fields = _declarations(source().decode())
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in functions.items():
        symbol = getattr(lib, name)
        symbol.restype, symbol.argtypes = restype, argtypes
    tables = type("scan_phase_t", (ctypes.Structure,), {"_fields_": fields})
    if lib.scan_phase_tables_size() != ctypes.sizeof(tables):
        raise _Unavailable(f"{path} and its source disagree on scan_phase_t")
    return lib, tables


def _unavailable(reason: str) -> KernelUnavailable:
    return KernelUnavailable(
        f"the compiled kernels of repro cannot be used: {reason} (they are "
        "built on first use with the host's C compiler, cc, into "
        f"{cache_dir()})"
    )


def resolve() -> str:
    """Build (once per machine) and load (once per process) the shared
    object; returns its path.

    Raises :class:`KernelUnavailable` naming the cause.  The first failure
    is remembered: later calls raise it again without another build.  The
    process backend's parent calls this before it starts its ranks and hands the
    path to :func:`adopt` in every rank, so ranks never compile.
    """
    global _lib, _PhaseTables, _path, _failure
    with _lock:
        if _lib is None and _failure is None:
            try:
                path = _build()
                _lib, _PhaseTables = _load(path)
                _path = str(path)
            # RuntimeError: Path.home() when no home directory is known
            except (_Unavailable, OSError, RuntimeError,
                    subprocess.SubprocessError) as exc:
                _failure = str(exc) or type(exc).__name__
        if _lib is None:
            raise _unavailable(str(_failure))
        return str(_path)


def adopt(path: str) -> None:
    """Load the shared object a parent process resolved (worker side)."""
    global _lib, _PhaseTables, _path
    with _lock:
        try:
            _lib, _PhaseTables = _load(Path(path))
        except (_Unavailable, OSError) as exc:
            raise _unavailable(str(exc) or type(exc).__name__) from exc
        _path = path


def _kernels() -> ctypes.CDLL:
    """The loaded shared object (:func:`resolve` on first use)."""
    if _lib is None:
        resolve()
    return _lib


def _ptr(arr: np.ndarray, dtype, size: int | None = None) -> int:
    """Address of a C-contiguous ``dtype`` array (of ``size`` entries)."""
    if (
        type(arr) is not np.ndarray or arr.dtype != dtype
        or not arr.flags.c_contiguous
        or (size is not None and arr.size != size)
    ):
        raise TypeError(
            f"the native kernels need a C-contiguous {np.dtype(dtype).name} "
            f"ndarray" + ("" if size is None else f" of {size} entries")
        )
    return arr.ctypes.data


class PhaseScan:
    """One compiled call per SCLP phase, or per shard segment of one
    (``scan_phase`` of ``_scan.c``).

    Bound to one :func:`~repro.engine.sclp.run_sclp` call: the head
    pointers of the CSR and the arrays that call mutates in place are
    checked (type, dtype, contiguity, length) and their addresses taken
    here, once; a phase passes only what ``run_sclp`` rebinds between
    phases.  The arcs are bound apart (:meth:`bind_arcs`): the whole CSR
    once on a resident graph, one shard segment's block at a time on an
    out-of-core store.  ``window`` is the largest chunk a phase will ask
    for; ``frontier`` says whether phases filter by, and mark, the active
    set.  A call visits ``order`` in windows of ``chunk`` — the chunk loop
    that ``tests/engine/python_phase.py`` writes out in Python as its
    oracle — and returns ``(moved, scanned, arcs, chunks)``.  Its scratch
    is allocated here, once per bound call.
    """

    def __init__(self, xadj, labels, constraint, vwgt, used, local_out,
                 changed_mask, *, n_local: int, space: int, bound: int,
                 refine: bool, frontier: bool, tie_seed: int, tie_base: int,
                 window: int) -> None:
        _kernels()  # the first kernel use of a run: fail here, not mid-phase
        n_total = labels.size
        if not 0 <= n_local <= n_total:
            raise ValueError(f"n_local={n_local} outside [0, {n_total}]")
        self._window, self._frontier = window, frontier
        self._scratch = {
            "acc": np.zeros(space, dtype=np.int64),
            "mark": np.zeros(space, dtype=np.uint8),
            "touched": np.empty(space, dtype=np.int64),
            **{name: np.empty(window, dtype=np.int64) for name in (
                "nodes", "begin", "count", "own", "target", "isolated")},
            **{name: np.empty(window, dtype=np.uint8)
               for name in ("moves", "evicting")},
        }
        if frontier:  # blocked/slack of scan_phase_t, zero before any scan
            self._scratch["blocked"] = np.zeros(n_local, dtype=np.uint64)
            self._scratch["slack"] = np.zeros(n_local, dtype=np.int64)
        # the struct holds addresses only: keep their owners alive with it
        self._owners = (xadj, labels, constraint, vwgt, used, local_out,
                        changed_mask)
        self._arcs: tuple[np.ndarray, np.ndarray] | tuple = ()
        self._tables = _PhaseTables(
            n_local=n_local, n_total=n_total,
            xadj=_ptr(xadj, np.int64, n_local + 1),
            vwgt=_ptr(vwgt, np.int64, n_total),
            constraint=(None if constraint is None
                        else _ptr(constraint, np.int64, n_total)),
            labels=_ptr(labels, np.int64), space=space, bound=bound,
            refine=refine, tie_seed=tie_seed, tie_base=tie_base,
            used=_ptr(used, np.int64, space),
            local_out=(None if local_out is None
                       else _ptr(local_out, np.int64, space)),
            changed_mask=_ptr(changed_mask, np.bool_, n_local),
            **{name: arr.ctypes.data for name, arr in self._scratch.items()},
        )

    def bind_arcs(self, arc_lo: int, nbr, wgt) -> None:
        """Serve the arcs ``[arc_lo, arc_lo + nbr.size)`` of the CSR from
        ``nbr``/``wgt`` until the next bind.  A phase call whose visited
        nodes have an arc outside them raises ``ValueError`` and reads
        nothing outside them.  A memory-mapped block is read in place."""
        nbr, wgt = np.asarray(nbr), np.asarray(wgt)
        t = self._tables
        t.nbr, t.wgt = _ptr(nbr, np.int64), _ptr(wgt, np.int64, nbr.size)
        t.arc_lo, t.n_arcs = int(arc_lo), nbr.size
        self._arcs = (nbr, wgt)

    def __call__(self, order, chunk: int, cap, exact, evict_budget, active,
                 next_active) -> tuple[int, int, int, int]:
        """Run ``order`` in windows of ``chunk``.  ``cap`` and, in the
        budget-share regime, ``exact``/``evict_budget`` are int64 tables of
        ``space`` entries (``None`` outside it); a full sweep leaves the two
        masks alone."""
        t = self._tables
        space, n_local = t.space, t.n_local
        if not 1 <= chunk <= self._window:
            raise ValueError(f"chunk {chunk} outside [1, {self._window}]")
        if exact is not None and t.local_out is None:
            raise ValueError("budget shares (exact) need the local_out table")
        t.cap = _ptr(cap, np.int64, space)
        t.exact = None if exact is None else _ptr(exact, np.int64, space)
        t.evict_budget = (None if exact is None
                          else _ptr(evict_budget, np.int64, space))
        if self._frontier:
            t.active = _ptr(active, np.bool_, n_local)
            t.next_active = _ptr(next_active, np.bool_, n_local)
        if _lib.scan_phase(ctypes.addressof(t), order.size,
                           _ptr(order, np.int64), chunk) < 0:
            raise ValueError(
                "the native scan met a node, neighbour or label index outside "
                f"its table (n_total={t.n_total}, label space={space}), or a "
                f"node with arcs outside the bound block [{t.arc_lo}, "
                f"{t.arc_lo + t.n_arcs})"
            )
        return t.moved, t.scanned, t.arcs, t.chunks


# ----------------------------------------------------------------------
# The coarsest level (``_coarse.c``)
# ----------------------------------------------------------------------

#: the status codes of ``_coarse.c``
_FAULTS = {
    -1: "a node id",
    -2: "an arc range in xadj",
    -3: "a neighbour id in adjncy",
    -4: "a block id or mapping entry",
    -5: "a row of the scratch sized for it",
}


def _fault(kernel: str, status: int, what: str | None = None) -> ValueError:
    """The error of a ``_coarse.c`` status; ``what`` names the culprit
    where the caller knows it."""
    if what is None:
        what = f"{_FAULTS.get(status, f'status {status}')} is outside its table"
    return ValueError(f"native {kernel}: {what}")


def _csr(xadj: np.ndarray, adjncy: np.ndarray) -> tuple[int, int, int, int]:
    """``n, n_arcs, xadj, adjncy`` as every ``_coarse.c`` kernel takes them."""
    if xadj.size < 1:
        raise ValueError("xadj must hold n + 1 entries")
    return (xadj.size - 1, adjncy.size, _ptr(xadj, np.int64),
            _ptr(adjncy, np.int64))


def quotient_arcs(xadj, adjncy, adjwgt, mapping: np.ndarray, n_coarse: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xadj, adjncy, adjwgt`` of the quotient of the *transpose* of the
    CSR under ``mapping`` (fine node -> coarse node in ``[0, n_coarse)``):
    each fine arc ``u -> v`` read as ``mapping[v] -> mapping[u]``,
    self-loops dropped, parallel arcs summed, rows ordered by neighbour —
    the canonical CSR :func:`repro.graph.build.group_arcs` builds from the
    reversed, relabelled arc list.  On a symmetric CSR (every
    :class:`~repro.graph.Graph`) that is the quotient itself.  Two passes
    visit the source clusters in ascending order, so each row is filled
    in neighbour order and no transposition runs: count, then fill arrays
    of exactly that size; the temporaries are O(n + n_coarse) tables."""
    n, n_arcs, *csr = _csr(xadj, adjncy)
    tables = (_ptr(mapping, np.int64, n), n_coarse)
    start, xadj_c = (np.empty(n_coarse + 1, dtype=np.int64) for _ in range(2))
    stamp, cur = (np.empty(n_coarse, dtype=np.int64) for _ in range(2))
    order = np.empty(n, dtype=np.int64)
    lib = _kernels()
    count = lib.quotient_count(
        n, n_arcs, *csr, *tables, start.ctypes.data, order.ctypes.data,
        stamp.ctypes.data, xadj_c.ctypes.data,
    )
    if count < 0:
        raise _fault("quotient build", count)
    adjncy_c, adjwgt_c = (np.empty(count, dtype=np.int64) for _ in range(2))
    status = lib.quotient_fill(
        n, n_arcs, *csr, _ptr(adjwgt, np.int64, n_arcs), *tables,
        start.ctypes.data, order.ctypes.data, stamp.ctypes.data,
        cur.ctypes.data, count, xadj_c.ctypes.data, adjncy_c.ctypes.data,
        adjwgt_c.ctypes.data,
    )
    if status < 0:
        raise _fault("quotient build", status)
    return xadj_c, adjncy_c, adjwgt_c


def group_arcs(n: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray,
               mirror: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xadj, adjncy, adjwgt`` of the arc list ``src[i] -> dst[i]`` (weight
    ``wgt[i]``, all three int64) over ``n`` nodes in canonical CSR: rows by
    source, each ordered by neighbour, parallel arcs summed (zero sums
    kept), self-loops dropped.  With ``mirror`` every arc is read in both
    directions: the list concatenated with its reverse, never built.  Three
    passes: count the rows, bucket and merge in place, order each row by
    two transpositions; the outputs and the second transposition's
    temporaries have exactly the grouped size.  Where the merged rows are
    already ordered by neighbour the merge is the result and no
    transposition runs.  An endpoint outside ``[0, n)`` raises
    ``ValueError`` naming the first such arc."""
    n_in = src.size
    ends = (_ptr(src, np.int64, n_in), _ptr(dst, np.int64, n_in))
    weights = _ptr(wgt, np.int64, n_in)
    start = np.empty(n + 1, dtype=np.int64)
    bad, ordered = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lib = _kernels()
    count = lib.group_count(n, n_in, *ends, int(mirror), start.ctypes.data,
                            bad.ctypes.data)
    if count < 0:
        i = int(bad[0])
        raise _fault("arc grouping", count, None if count != -1 else (
            f"arc {i} ({src[i]} -> {dst[i]}) has an endpoint outside [0, {n})"))
    col, val = (np.empty(count, dtype=np.int64) for _ in range(2))
    stamp, slot = (np.empty(n, dtype=np.int64) for _ in range(2))
    merged = lib.group_merge(
        n, n_in, *ends, weights, int(mirror), start.ctypes.data, count,
        col.ctypes.data, val.ctypes.data, stamp.ctypes.data, slot.ctypes.data,
        ordered.ctypes.data,
    )
    if merged < 0:
        raise _fault("arc grouping", merged)
    if ordered[0]:
        if merged < count:
            col, val = col[:merged].copy(), val[:merged].copy()
        return start, col, val
    t_off, xadj = (np.empty(n + 1, dtype=np.int64) for _ in range(2))
    t_col, t_wgt, adjncy, adjwgt = (
        np.empty(merged, dtype=np.int64) for _ in range(4))
    status = lib.group_order(
        n, start.ctypes.data, merged, col.ctypes.data, val.ctypes.data,
        t_off.ctypes.data, t_col.ctypes.data, t_wgt.ctypes.data,
        xadj.ctypes.data, adjncy.ctypes.data, adjwgt.ctypes.data,
    )
    if status < 0:
        raise _fault("arc grouping", status)
    return xadj, adjncy, adjwgt


class GhostLayout(NamedTuple):
    """One PE's ghost layout (:func:`ghost_layout`)."""

    #: the arc targets in local ids: owned ``g - first``, ghost ``n_local + s``
    adjncy: np.ndarray
    #: global id of each ghost, ascending
    ghost_global: np.ndarray
    #: owning PE of each ghost
    ghost_owner: np.ndarray
    #: ``n_pes + 1`` entries: the ghosts of PE ``q`` are
    #: ``[ghost_start[q], ghost_start[q + 1])``
    ghost_start: np.ndarray
    #: ``n_pes + 1`` entries: PE ``q``'s send list is
    #: ``send_nodes[send_start[q]:send_start[q + 1]]``
    send_start: np.ndarray
    #: per PE ``q``, ascending: the owned nodes with an arc to a ghost of ``q``
    send_nodes: np.ndarray
    #: reverse CSR of the arcs to ghosts: ghost ``s``'s owned sources are
    #: ``ghost_src[ghost_xadj[s]:ghost_xadj[s + 1]]``, in arc order
    ghost_xadj: np.ndarray
    ghost_src: np.ndarray


def ghost_layout(vtxdist: np.ndarray, rank: int, xadj: np.ndarray,
                 dst: np.ndarray) -> GhostLayout:
    """The ghost layout of PE ``rank``'s rows (``xadj``, ``n_local + 1``
    entries from 0 to ``dst.size``) under ``vtxdist`` (ascending from 0),
    whose arc targets ``dst`` are global ids: ghosts numbered in ascending
    global id, their owners, the send lists and the reverse CSR of the
    arcs to ghosts (paper Section IV-A), in three passes over the arcs and
    one over the global id range.  A vtxdist, rank, arc range or target
    outside its table raises ``ValueError``."""
    n_pes, n_local, n_arcs = vtxdist.size - 1, xadj.size - 1, dst.size
    if n_pes < 1 or n_local < 0:
        raise _fault("ghost layout", -4)
    head = (n_pes, _ptr(vtxdist, np.int64), rank, n_local,
            _ptr(xadj, np.int64), n_arcs, _ptr(dst, np.int64))
    slot = np.empty(max(int(vtxdist[-1]), 0), dtype=np.int64)
    ghost_start, send_start = (np.empty(n_pes + 1, dtype=np.int64) for _ in range(2))
    pe_stamp, cursor = (np.empty(n_pes, dtype=np.int64) for _ in range(2))
    lib = _kernels()
    cross = lib.ghost_count(
        *head, slot.ctypes.data, ghost_start.ctypes.data,
        send_start.ctypes.data, pe_stamp.ctypes.data,
    )
    if cross < 0:
        raise _fault("ghost layout", cross)
    n_ghost = int(ghost_start[-1])
    adjncy = np.empty(n_arcs, dtype=np.int64)
    ghost_global, ghost_owner = (np.empty(n_ghost, dtype=np.int64) for _ in range(2))
    ghost_xadj = np.empty(n_ghost + 1, dtype=np.int64)
    ghost_src = np.empty(cross, dtype=np.int64)
    send_nodes = np.empty(int(send_start[-1]), dtype=np.int64)
    status = lib.ghost_fill(
        *head, slot.ctypes.data, ghost_start.ctypes.data,
        send_start.ctypes.data, cross, adjncy.ctypes.data,
        ghost_global.ctypes.data, ghost_owner.ctypes.data,
        ghost_xadj.ctypes.data, ghost_src.ctypes.data, send_nodes.ctypes.data,
        pe_stamp.ctypes.data, cursor.ctypes.data,
    )
    if status < 0:
        raise _fault("ghost layout", status)
    return GhostLayout(adjncy, ghost_global, ghost_owner, ghost_start,
                       send_start, send_nodes, ghost_xadj, ghost_src)


class GrowBisection:
    """Greedy graph growing inside node subsets of one graph.

    ``grow(members, seed, target)`` is greedy graph growing (the frontier
    a max-heap on gain, Metis's) on the subgraph induced by ``members``
    (ascending node ids; ``None`` = the whole graph) from the start node
    of index ``seed`` among them — the caller's draw — and returns one
    byte per member, 0 where it was absorbed.  The subgraph is never built: the
    kernel skips arcs that leave the subset and meets the others in this
    graph's arc order, which is the induced subgraph's when every row here
    is sorted by neighbour (the caller's to check).  Scratch is sized once,
    for the whole graph, and left clean by every call, so the 2(k-1)
    bisections of a recursive bisection share it.
    """

    def __init__(self, xadj, adjncy, adjwgt, vwgt) -> None:
        n, n_arcs, *csr = _csr(xadj, adjncy)
        self._graph = (n, n_arcs, *csr, _ptr(adjwgt, np.int64, n_arcs),
                       _ptr(vwgt, np.int64, n))
        self._mark = np.zeros(n, dtype=np.uint8)
        gain = np.empty(n, dtype=np.int64)
        # every push but the first follows one arc of a node absorbed once
        heap_room = n_arcs + 1
        heap = np.empty(3 * heap_room, dtype=np.int64)
        self._scratch = (self._mark.ctypes.data, gain.ctypes.data,
                         heap.ctypes.data, heap_room)
        # the addresses' owners
        self._owners = (xadj, adjncy, adjwgt, vwgt, gain, heap)

    def __call__(self, members: np.ndarray | None, seed: int, target: int
                 ) -> np.ndarray:
        n_sub = self._graph[0] if members is None else members.size
        side = np.empty(n_sub, dtype=np.uint8)
        status = _kernels().grow_bisection(
            *self._graph, n_sub,
            None if members is None else _ptr(members, np.int64),
            seed, target, *self._scratch, side.ctypes.data,
        )
        if status < 0:
            raise _fault("graph growing", status)
        return side


def kway_refine_pass(xadj, adjncy, adjwgt, vwgt, order: np.ndarray,
                     labels: np.ndarray, weights: np.ndarray,
                     max_block_weight: int) -> int:
    """One pass of :func:`repro.kaffpa.kway_fm.greedy_kway_refine` over
    ``order``; ``labels`` and the block ``weights`` (one entry per block
    id in use) are updated in place.  Returns the number of nodes moved.
    The bound is an integer, as every block weight is (``TypeError``
    otherwise)."""
    bound = operator.index(max_block_weight)
    n, n_arcs, *csr = _csr(xadj, adjncy)
    space = weights.size
    conn, touched = (np.empty(space, dtype=np.int64) for _ in range(2))
    seen = np.zeros(space, dtype=np.uint8)
    moved = _kernels().kway_refine_pass(
        n, n_arcs, *csr, _ptr(adjwgt, np.int64, n_arcs), _ptr(vwgt, np.int64, n),
        _ptr(order, np.int64, n), _ptr(labels, np.int64, n), space,
        _ptr(weights, np.int64), bound,
        conn.ctypes.data, seen.ctypes.data, touched.ctypes.data,
    )
    if moved < 0:
        raise _fault("k-way refinement", moved)
    return int(moved)


def match_heavy_edges(xadj, adjncy, adjwgt, vwgt, constraint: np.ndarray | None,
                      max_pair_weight: int | None, order: np.ndarray
                      ) -> np.ndarray:
    """:func:`repro.kaffpa.matching.heavy_edge_matching` with the visit
    ``order`` drawn by the caller; returns ``mate``.  ``None`` bounds no
    pair."""
    n, n_arcs, *csr = _csr(xadj, adjncy)
    mate = np.arange(n, dtype=np.int64)
    pairs = _kernels().match_heavy_edges(
        n, n_arcs, *csr, _ptr(adjwgt, np.int64, n_arcs), _ptr(vwgt, np.int64, n),
        None if constraint is None else _ptr(constraint, np.int64, n),
        _INT64_MAX if max_pair_weight is None else max_pair_weight,
        _ptr(order, np.int64, n), mate.ctypes.data,
    )
    if pairs < 0:
        raise _fault("heavy-edge matching", pairs)
    return mate


def partition_quality(xadj, lo: int, hi: int, arc_lo: int, nbr, wgt,
                      labels: np.ndarray, space: int) -> tuple[int, int, int]:
    """``(cut arc weight, boundary nodes, communication volume)`` of the
    source nodes ``[lo, hi)`` under ``labels`` (every entry in ``[0,
    space)``; ``xadj`` may have fewer rows than ``labels`` has entries, the
    rest being a PE's ghosts).  The node arcs are served from ``nbr``/``wgt``,
    the arcs ``[arc_lo, arc_lo + nbr.size)`` of the CSR, as
    :meth:`PhaseScan.bind_arcs` serves them; a memory-mapped block is read
    in place.  The cut counts each cut edge once from each swept end.  A
    node, neighbour or label outside its table, or a node with arcs outside
    the block, raises ``ValueError``."""
    if xadj.size < 1:
        raise ValueError("xadj must hold n + 1 entries")
    nbr, wgt = np.asarray(nbr), np.asarray(wgt)
    stamp = np.empty(space, dtype=np.int64)
    totals = np.zeros(3, dtype=np.int64)
    status = _kernels().partition_quality(
        xadj.size - 1, _ptr(xadj, np.int64), lo, hi, arc_lo, nbr.size,
        _ptr(nbr, np.int64), _ptr(wgt, np.int64, nbr.size), labels.size,
        _ptr(labels, np.int64), space, stamp.ctypes.data, totals.ctypes.data,
    )
    if status < 0:
        raise _fault("quality kernel", status)
    return tuple(totals.tolist())


# ----------------------------------------------------------------------
# METIS text (``_metis.c``)
# ----------------------------------------------------------------------

def _token(text: bytes, offset: int, length: int) -> str:
    """The token at ``text[offset:offset + length]`` for a message."""
    raw = text[offset : offset + min(length, 40)]
    return repr(raw.decode("ascii", "backslashreplace")
                + ("..." if length > 40 else ""))


def _metis_culprit(status: int, info: np.ndarray, text: bytes, n: int
                   ) -> str | None:
    """What a ``_metis.c`` fault (its ``TEXT_*`` codes) names, from its
    ``info``: the file line first.  ``None`` for ``TEXT_ROOM``, a
    caller-sized array that disagrees with the count."""
    line, a, b, c, d, e = info.tolist()
    at = f"line {line}: "
    if status == -6:
        return at + f"byte 0x{text[a]:02x} is not ASCII"
    if status in (-7, -8):
        what = "is not an integer" if status == -7 else "does not fit in int64"
        return at + f"token {_token(text, a, b)} {what}"
    if status == -9:
        return at + f"neighbour id {a} is outside 1..{n}"
    if status == -10:
        return at + "no node weight, and the header's fmt has node weights"
    if status == -11:
        return at + (f"neighbour id {a} has no edge weight, and the header's "
                     "fmt has edge weights")
    if status == -12:
        return at + f"{('node', 'edge')[b]} weight {a} is negative"
    if status == -13:
        return (at if line else "") + f"expected {n} adjacency lines, found {a}"
    if status == -14:
        return at + (f"node {a} lists neighbour {b}, but node {b} (line {c}) "
                     f"does not list {a}: the adjacency must be symmetric")
    if status == -15:
        return at + (f"edge ({a}, {b}) weighs {d} here but {e} on line {c}: "
                     "the adjacency must be symmetric")
    return None


def parse_metis(text: bytes, pos: int, line: int, n: int, node_weights: bool,
                edge_weights: bool
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``vwgt, rows, cols, wgts`` of the METIS body ``text[pos:]``, whose
    first line is file line ``line``, for ``n`` nodes: the node weights
    (unit unless ``node_weights``) and every entry ``(v, u, w)`` with ``u >
    v`` (``w`` = 1 unless ``edge_weights``), 0-based, grouped by ``u`` and
    in file order within a group.  Two passes over the text: count and
    check, then fill arrays of exactly that size and check the symmetry
    (``_metis.c`` states the grammar).  The first fault in file order
    raises ``ValueError`` naming its line."""
    data = np.frombuffer(text, dtype=np.uint8)
    head = (_ptr(data, np.uint8), data.size, pos, line, n, int(node_weights),
            int(edge_weights))
    low = np.empty(n + 1, dtype=np.int64)
    line_of, vwgt, seen = (np.empty(n, dtype=np.int64) for _ in range(3))
    info = np.zeros(6, dtype=np.int64)
    lib = _kernels()
    status = lib.metis_count(*head, low.ctypes.data, line_of.ctypes.data,
                             info.ctypes.data)
    if status >= 0:
        rows, cols, wgts = (np.empty(status, dtype=np.int64) for _ in range(3))
        from_low, from_high = (np.empty(n, dtype=np.uint64) for _ in range(2))
        status = lib.metis_fill(
            *head, low.ctypes.data, line_of.ctypes.data, status,
            vwgt.ctypes.data, rows.ctypes.data, cols.ctypes.data,
            wgts.ctypes.data, seen.ctypes.data, from_low.ctypes.data,
            from_high.ctypes.data, info.ctypes.data,
        )
    if status < 0:
        raise _fault("METIS reader", status, _metis_culprit(status, info, text, n))
    return vwgt, rows, cols, wgts
