"""Low-overhead span tracer for the multilevel pipeline.

The paper's headline claims are trajectory claims — shrink factors per
cluster-contraction level, LP convergence in a handful of iterations, cut
improvement per V-cycle — so the pipeline is instrumented *in place*
with spans (``TRACER.span("lp.iteration", comm=comm, mode="refine")``)
and instant events.  Every record carries two clocks:

* **wall** — host ``time.perf_counter``, what a profiler would see;
* **sim** — the per-rank simulated clock of the machine model (present
  whenever the instrumentation site has a ``SimComm``), so exported
  traces show the *modelled* machine, not the Python host.

Spans and events are the only channel.  There is no counter registry
beside them: how many collectives ran, how many nodes moved, what the
final cut was are all read back off the records by
:mod:`repro.obsv.analyze`, which therefore counts the same on every
backend (a worker process ships its record buffer to the parent,
:meth:`Tracer.absorb`, and nothing else).

Disabled-by-default contract
----------------------------
``TRACER`` (the module singleton) starts disabled, and every
instrumentation site is guarded by one attribute check
(``TRACER.enabled``) or by calling :meth:`Tracer.span`, whose disabled
path returns one shared no-op context manager without allocating.  That
makes it cheap enough to leave the instrumentation unconditionally in
the hot paths (bench-verified <2 % on the BENCH_lp instances).

Threading model
---------------
The simulated PEs are threads, so the tracer is process-global with a
per-thread span stack (nesting/depth is a per-rank notion) and a lock
around the shared record buffer.  Rank attribution is explicit: pass
``comm=`` (preferred — also samples the simulated clock) or ``rank=``.
The last span each rank *entered* is kept in a side table so the SPMD
deadlock watchdog (:mod:`repro.dist.runtime`) can report where a stuck
rank was, even though the span never exits.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "TRACER", "host_header", "trace_session"]

#: schema version of the trace header record
_HEADER_VERSION = 1


def host_header() -> dict[str, Any]:
    """One ``{"type": "header", ...}`` record describing the recording host.

    Captured once at :meth:`Tracer.enable` so every exported trace says
    where its wall clocks came from — crucially ``cpu_cores`` (and the
    cgroup-aware ``cpu_affinity``), because wall-clock "speedups" of the
    process backend recorded on a single-core host measure queue
    overhead, not parallelism.  The runtime annotates ``backend``/``p``
    once an SPMD run starts.
    """
    try:
        affinity: int | None = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux hosts
        affinity = None
    try:
        import numpy
        numpy_version: str | None = numpy.__version__
    except ImportError:  # keep obsv importable without numpy
        numpy_version = None
    return {
        "type": "header",
        "version": _HEADER_VERSION,
        "cpu_cores": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "pid": os.getpid(),
        "backend": None,
        "p": None,
    }


class _NoopSpan:
    """Shared do-nothing span returned while the tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; use as a context manager (``with tracer.span(...)``)."""

    __slots__ = (
        "_tracer", "name", "rank", "attrs", "_comm",
        "_wall_t0", "_sim_t0", "_depth", "_parent",
    )

    def __init__(self, tracer: "Tracer", name: str, rank: int | None,
                 comm: Any, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.rank = rank
        self.attrs = attrs
        self._comm = comm
        self._wall_t0 = 0.0
        self._sim_t0: float | None = None
        self._depth = 0
        self._parent: str | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        self._depth = len(stack)
        self._parent = stack[-1].name if stack else None
        if self.rank is None and stack:
            # a span opened without a communicator (KaFFPa's steps) belongs
            # to the rank whose span it is nested in
            self.rank = stack[-1].rank
        stack.append(self)
        if self.rank is not None:
            tracer._last_span_by_rank[self.rank] = (self.name, self.attrs)
        if self._comm is not None:
            self._sim_t0 = float(self._comm.sim_time)
        self._wall_t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        wall_t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        sim_ts = sim_dur = None
        if self._comm is not None and self._sim_t0 is not None:
            sim_ts = self._sim_t0
            sim_dur = float(self._comm.sim_time) - self._sim_t0
        tracer._append({
            "type": "span",
            "name": self.name,
            "rank": self.rank,
            "depth": self._depth,
            "parent": self._parent,
            "wall_ts": self._wall_t0 - tracer._wall_origin,
            "wall_dur": wall_t1 - self._wall_t0,
            "sim_ts": sim_ts,
            "sim_dur": sim_dur,
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """Process-global span/event recorder (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[dict[str, Any]] = []
        self.header: dict[str, Any] | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_span_by_rank: dict[int, tuple[str, dict[str, Any]]] = {}
        self._wall_origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, reset: bool = True) -> "Tracer":
        """Arm the tracer; by default drops records of a previous session.

        A fresh host header is captured per session.  It lives beside the
        record buffer (not in it) so ``TRACER.records`` stays pure
        span/event data; exporters emit it as a ``header`` line and
        :meth:`absorb` never duplicates it across process workers.
        """
        if reset:
            self.reset()
        if self.header is None:
            self.header = host_header()
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Disarm the tracer, keeping the recorded session for export."""
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self.records = []
        self.header = None
        self._last_span_by_rank.clear()
        self._wall_origin = time.perf_counter()

    def annotate_header(self, **fields: Any) -> None:
        """Fold run facts (``backend``, ``p``) into the session header."""
        if self.header is not None:
            self.header.update(fields)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def span(self, name: str, *, rank: int | None = None, comm: Any = None,
             **attrs: Any):
        """Open a span; no-op (one shared object) while disabled.

        ``comm`` is any object with ``rank`` and ``sim_time`` attributes
        (in practice a :class:`~repro.dist.comm.SimComm`); it supplies
        both the rank attribution and the simulated clock samples.
        """
        if not self.enabled:
            return _NOOP_SPAN
        if comm is not None and rank is None:
            rank = comm.rank
        return Span(self, name, rank, comm, attrs)

    def event(self, name: str, *, rank: int | None = None, comm: Any = None,
              **attrs: Any) -> None:
        """Record one instant event; no-op while disabled."""
        if not self.enabled:
            return
        sim_ts = None
        if comm is not None:
            if rank is None:
                rank = comm.rank
            sim_ts = float(comm.sim_time)
        self._append({
            "type": "event",
            "name": name,
            "rank": rank,
            "wall_ts": time.perf_counter() - self._wall_origin,
            "sim_ts": sim_ts,
            "attrs": attrs,
        })

    def record_span(self, name: str, *, rank: int | None, wall_ts: float,
                    wall_dur: float, sim_ts: float | None,
                    sim_dur: float | None, **attrs: Any) -> None:
        """Append a pre-timed span record (fast path for the comm layer).

        The communication layer samples its own clocks — it *is* the sim
        clock authority — so going through the context-manager protocol
        would only add overhead to every collective.
        """
        if not self.enabled:
            return
        if rank is not None:
            self._last_span_by_rank[rank] = (name, attrs)
        self._append({
            "type": "span",
            "name": name,
            "rank": rank,
            "depth": len(self._stack()),
            "parent": self._stack()[-1].name if self._stack() else None,
            "wall_ts": wall_ts - self._wall_origin,
            "wall_dur": wall_dur,
            "sim_ts": sim_ts,
            "sim_dur": sim_dur,
            "attrs": attrs,
        })

    def absorb(self, records: list[dict[str, Any]]) -> None:
        """Merge records captured by another process's tracer.

        The process backend runs one tracer per worker; at join the
        parent folds each worker's buffer in (rank order).  Records are
        appended as-is — workers share the parent's wall origin, so the
        merged timeline is already consistent.
        """
        if not records:
            return
        with self._lock:
            self.records.extend(records)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def last_span(self, rank: int) -> str | None:
        """Human-readable "where was rank r last" for the deadlock watchdog."""
        entry = self._last_span_by_rank.get(rank)
        if entry is None:
            return None
        name, attrs = entry
        if not attrs:
            return name
        inner = ", ".join(f"{k}={v}" for k, v in attrs.items())
        return f"{name}({inner})"

    def snapshot(self) -> list[dict[str, Any]]:
        """A shallow copy of the record buffer (safe to iterate/export)."""
        with self._lock:
            return list(self.records)


#: the process-global tracer every instrumentation site talks to
TRACER = Tracer()


@contextmanager
def trace_session(tracer: Tracer = TRACER) -> Iterator[Tracer]:
    """``with trace_session() as t:`` — enable around a block, always disarm."""
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.disable()
