"""Simulated message-passing communicator.

Every distributed algorithm in this library is written in SPMD style
against :class:`SimComm`, whose surface mirrors the MPI subset the paper
uses (Section IV): barrier, allreduce, allgather, alltoall(v), broadcast,
exclusive prefix sum (exscan), and buffered point-to-point
sends delivered at the next exchange — the paper's phase-κ asynchronous
update scheme.

The hub protocol
----------------
A program does not know where its ranks run: ``P`` threads of one
process (:func:`~repro.dist.runtime.run_spmd`) and ``P`` OS processes
forked from one server (:func:`~repro.dist.runtime.run_spmd_processes`,
which documents what such a rank inherits) get the same
:class:`SimComm`, and every collective is one call of
:meth:`SimComm._collect`.  Rank 0 doubles as the *hub*, and every other
rank has one duplex *link* to it: the rank sends ``(value, clock, order
tag)`` on its link and waits for the answer on the same link; the hub
reads the links in rank order, checks the tags, takes the maximum clock
and answers every rank on its link.  The answer of a gathering
collective is a private copy of the gathered list; that of an alltoall
is the rank's own column, the payloads addressed to it, and no rank
sends the payload it addresses to itself.  The :class:`World` holds
what the ranks share — size, machine, seed, the links, an abort event
and a progress table — and is the one place that picks the transport:
a ``queue.SimpleQueue`` each way per link for thread ranks, a
``multiprocessing`` pipe of :data:`~repro.dist.runtime.PROCESS_CONTEXT`
per link for process ranks, each of which holds only its own ends.
Everything else (clock, :class:`CommStats`, outbox) is a field of the
rank's own :class:`SimComm`.

Every blocking receive polls the abort event: when a rank fails or the
launcher's watchdog fires, the event is set and each waiting rank
unwinds through the internal :class:`_Aborted` signal instead of
hanging.  A rank whose link reads as EOF or a broken pipe waits for
that event: the launcher sets it when it sees the far end die, and its
watchdog when the far end returned early.  The progress
table (one ``(op, seq)`` entry per rank, single writer) lets the
watchdog name where each stuck rank last was.

Simulated time
--------------
Each rank accumulates *local work* via :meth:`SimComm.work` (units ≈ edge
traversals).  Every collective synchronises simulated clocks exactly like
a bulk-synchronous superstep: all clocks jump to the maximum across ranks
plus the collective's alpha–beta cost from the :class:`~repro.perf.machine.Machine`
model.  Wall-clock claims in the scaling figures come from these clocks,
while *quality* numbers are real algorithm outputs.

Collective-order check
----------------------
The protocol assumes every rank calls the same collectives in the same
order; unchecked, a violation gathers values of different collectives
into one list and dies later with a misleading ``TypeError``.  So every
contribution carries an ``(op, sequence number, call site)`` tag and the
hub verifies that all ranks agree on all three — every rank raises
:class:`CollectiveMismatchError` naming the divergent ranks and both
call sites otherwise.  The call site counts: two ranks that enter the
same untagged op from different lines would gather unrelated values.  A
rank that never contributes cannot be named by the hub; that case ends
in the launcher's watchdog.  The static
companion of this check is :mod:`repro.analysis`.
"""

from __future__ import annotations

import copy
import ctypes
import os
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from ..obsv.tracer import TRACER
from ..perf.machine import SERIAL, Machine

__all__ = [
    "World",
    "SimComm",
    "CollectiveOps",
    "CommStats",
    "payload_bytes",
    "CollectiveMismatchError",
]


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed on which collective to run (SPMD divergence).

    Raised on every rank by the hub's order check, with the per-rank op
    tags and the set of divergent ranks in the message.
    """

    def __init__(self, message: str, divergent_ranks: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.divergent_ranks = tuple(divergent_ranks)

    def __reduce__(self):
        # Keep ``divergent_ranks`` across pickling: the process backend
        # ships this exception from worker to parent through a pipe.
        return (type(self), (self.args[0], self.divergent_ranks))


class _Aborted(BaseException):
    """Internal unwind signal: another rank failed or the launcher aborted.

    Derives from ``BaseException`` so SPMD programs that catch broad
    ``Exception`` cannot swallow the shutdown.
    """


#: bytes reserved per rank for the op name in the progress table
_OP_SLOT = 32

#: abort-event poll interval of a blocking receive, seconds
_POLL_INTERVAL = 0.05


def _callsite(max_frames: int = 2) -> str:
    """Short ``file:line in func`` chain of the first non-comm frames."""
    frame = sys._getframe(2)
    parts: list[str] = []
    while frame is not None and len(parts) < max_frames:
        code = frame.f_code
        if code.co_filename != __file__:  # user code, not the comm layer
            parts.append(
                f"{os.path.basename(code.co_filename)}:{frame.f_lineno} "
                f"in {code.co_name}"
            )
        frame = frame.f_back
    return " <- ".join(parts) or "<unknown>"


def _mismatch_error(
    tags: Sequence[tuple[str, int, str]],
) -> CollectiveMismatchError | None:
    """Build the divergence error from one snapshot of per-rank op tags.

    Returns ``None`` when all ranks agree.  The hub computes the verdict
    and every other rank rebuilds it from the same snapshot, so each
    rank raises an exception object of its own.
    """
    counts: dict[tuple[str, int, str], int] = {}
    for tag in tags:
        counts[tag] = counts.get(tag, 0) + 1
    if len(counts) == 1:
        return None
    # Majority opinion defines the common stream; the rest diverged.
    majority = max(counts, key=counts.__getitem__)
    divergent = [r for r, tag in enumerate(tags) if tag != majority]
    lines = [f"  rank {r}: {op} #{seq} at {site}" for r, (op, seq, site) in enumerate(tags)]
    return CollectiveMismatchError(
        f"collective order mismatch (SPMD divergence): rank(s) {divergent} "
        f"diverged from the common stream ({majority[0]} #{majority[1]} at "
        f"{majority[2]}):\n" + "\n".join(lines),
        divergent_ranks=divergent,
    )


def payload_bytes(payload: Any) -> int:
    """Approximate wire size of a payload (NumPy-aware, 8 bytes per scalar).

    ``None`` is free (it encodes "no message"), booleans cost one byte,
    and strings are costed at their UTF-8 encoding, not their character
    count.  Containers sum their members, so ``bool``/``None`` elements
    are priced the same inside a list as at top level.
    """
    if payload is None:
        return 0
    if isinstance(payload, (bool, np.bool_)):
        return 1
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(payload_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_bytes(k) + payload_bytes(v) for k, v in payload.items())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64  # opaque object: flat estimate


@dataclass
class CommStats:
    """Per-rank communication counters (inspected by tests and benches)."""

    collectives: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    work_units: float = 0.0
    #: per-op breakdown ``{op: (count, bytes_sent)}``; counts sum to
    #: ``collectives`` and bytes sum to ``bytes_sent`` (only ``alltoall``
    #: sends payload bytes — the aggregate has always counted it that way).
    per_op: dict[str, tuple[int, int]] = field(default_factory=dict)

    def record_op(self, op: str, count: int = 0, nbytes: int = 0) -> None:
        """Fold one observation into the per-op breakdown."""
        prev_count, prev_bytes = self.per_op.get(op, (0, 0))
        self.per_op[op] = (prev_count + count, prev_bytes + nbytes)


class _QueueLink:
    """One end of a thread rank's link to the hub: a ``queue.SimpleQueue``
    each way, so ``put`` and ``get`` are the queues' own."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
        self.put, self.get = outbox.put, inbox.get

    @classmethod
    def pair(cls) -> tuple["_QueueLink", "_QueueLink"]:
        """The two ends of one link."""
        down, up = queue.SimpleQueue(), queue.SimpleQueue()
        return cls(up, down), cls(down, up)


class _PipeLink:
    """One end of a process rank's link to the hub: a duplex
    ``multiprocessing`` pipe end behind the ``put``/``get`` of a queue
    (values are pickled on the caller's thread; no feeder thread)."""

    def __init__(self, conn: Any) -> None:
        self.conn = conn

    @classmethod
    def pair(cls, ctx: Any) -> tuple["_PipeLink", "_PipeLink"]:
        """The two ends of one link."""
        hub, rank = ctx.Pipe()
        return cls(hub), cls(rank)

    def put(self, value: Any) -> None:
        self.conn.send(value)

    def get(self, timeout: float) -> Any:
        if not self.conn.poll(timeout):
            raise queue.Empty
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()


class World:
    """What the ranks of one SPMD execution share.

    ``ctx`` is the ``multiprocessing`` context of process ranks,
    :data:`~repro.dist.runtime.PROCESS_CONTEXT` (each rank is then handed
    :meth:`for_rank` at its start); ``None`` builds the in-process twins
    for thread ranks.  ``hub_ends[r]`` and ``rank_ends[r]`` are the two
    ends of rank ``r``'s link to the hub (``None`` at ``r = 0``).
    """

    def __init__(
        self,
        size: int,
        machine: Machine | None = None,
        seed: int = 0,
        ctx: Any = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.machine = machine or SERIAL
        self.seed = seed
        if ctx is None:
            new_link, self.aborted = _QueueLink.pair, threading.Event()
            self._progress_seq = (ctypes.c_int64 * size)()
            self._progress_op = (ctypes.c_char * (size * _OP_SLOT))()
        else:
            new_link, self.aborted = lambda: _PipeLink.pair(ctx), ctx.Event()
            self._progress_seq = ctx.RawArray(ctypes.c_int64, size)
            self._progress_op = ctx.RawArray(ctypes.c_char, size * _OP_SLOT)
        self.hub_ends: list[Any] = [None] * size
        self.rank_ends: list[Any] = [None] * size
        for rank in range(1, size):
            self.hub_ends[rank], self.rank_ends[rank] = new_link()

    def for_rank(self, rank: int) -> "World":
        """This world with only ``rank``'s own link ends (what a process
        rank is handed, so that a dead peer's link reads as EOF)."""
        view = copy.copy(self)
        view.hub_ends = self.hub_ends if rank == 0 else [None] * self.size
        view.rank_ends = [end if r == rank else None for r, end in enumerate(self.rank_ends)]
        return view

    def close(self) -> None:
        """Close every link end this world holds (process ranks only)."""
        for end in (*self.hub_ends, *self.rank_ends):
            if end is not None:
                end.close()

    def abort(self) -> None:
        """Make every rank blocked in a collective unwind (``_Aborted``)."""
        self.aborted.set()

    def stamp(self, rank: int, op: str, seq: int) -> None:
        """Record that ``rank`` enters its ``seq``-th collective, ``op``."""
        raw = op.encode("utf-8")[:_OP_SLOT]
        self._progress_op[rank * _OP_SLOT:(rank + 1) * _OP_SLOT] = raw.ljust(
            _OP_SLOT, b"\x00")
        self._progress_seq[rank] = seq

    def progress(self, rank: int) -> tuple[str, int] | None:
        """``(op, seq)`` of the collective ``rank`` last entered, if any."""
        seq = int(self._progress_seq[rank])
        if seq <= 0:
            return None
        raw = bytes(self._progress_op[rank * _OP_SLOT:(rank + 1) * _OP_SLOT])
        return raw.rstrip(b"\x00").decode("utf-8", "replace"), seq

    def comm(self, rank: int) -> "SimComm":
        """The communicator handle for one rank (call on the rank itself)."""
        return SimComm(self, rank)


class CollectiveOps:
    """The collective surface, written once over an abstract ``_collect``.

    The subclass (:class:`SimComm`) provides ``rank``, ``size``,
    ``stats``, an ``_outbox`` dict and ``_collect(value, recv_bytes_fn,
    op, personal)`` — which gathers one value per rank, advances the
    simulated clock, and returns the gathered list indexed by rank; with
    ``personal`` each value is a row of one payload per destination and
    the rank gets back its column, indexed by source.
    """

    rank: int
    size: int
    stats: CommStats
    _outbox: dict[int, list[Any]]

    def _collect(
        self,
        value: Any,
        recv_bytes_fn: Callable[[list[Any]], int],
        op: str = "collective",
        personal: bool = False,
    ) -> list[Any]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks (and their simulated clocks)."""
        self._collect(None, lambda _: 0, op="barrier")

    def allgather(self, value: Any) -> list[Any]:
        """Every rank receives the list of all ranks' values."""
        return self._collect(value, lambda vals: sum(payload_bytes(v) for v in vals),
                             op="allgather")

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] | None = None,
        tag: str | None = None,
    ) -> Any:
        """Reduce values from all ranks; every rank receives the result.

        ``op`` defaults to elementwise addition (NumPy-aware).  Any
        associative, commutative binary callable works.  ``tag``
        optionally refines the per-op stats key (and trace span) to
        ``allreduce[tag]``, mirroring :meth:`alltoall`; tags must be
        uniform across ranks (they participate in the hub's order check).
        """
        name = "allreduce" if tag is None else f"allreduce[{tag}]"
        values = self._collect(value, lambda vals: payload_bytes(vals[0]), op=name)
        if op is None:
            result = values[0]
            for other in values[1:]:
                result = result + other
            return result
        result = values[0]
        for other in values[1:]:
            result = op(result, other)
        return result

    def allreduce_max(self, value: Any) -> Any:
        """Allreduce with elementwise maximum."""
        return self.allreduce(value, op=np.maximum if isinstance(value, np.ndarray) else max)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root`` to all ranks."""
        values = self._collect(
            value if self.rank == root else None,
            lambda vals: payload_bytes(vals[root]),
            op="bcast",
        )
        return values[root]

    def exscan(self, value: int | float) -> int | float:
        """Exclusive prefix sum (rank 0 receives 0) — Section IV-C's q map."""
        values = self._collect(value, lambda vals: 8, op="exscan")
        return type(value)(sum(values[: self.rank]))

    def alltoall(
        self, per_destination: Sequence[Any], tag: str | None = None
    ) -> list[Any]:
        """Personalised all-to-all: element ``i`` goes to rank ``i``.

        Returns the list of payloads received, indexed by source rank.
        ``tag`` optionally refines the per-op stats key (and trace span)
        to ``alltoall[tag]``, so hot exchanges — the LP interface delta,
        the halo refresh — stay distinguishable in ``CommStats.per_op``
        without touching the aggregate counters.  Tags must be uniform
        across ranks (they participate in the hub's order check).
        """
        if len(per_destination) != self.size:
            raise ValueError("alltoall needs exactly one payload per rank")
        op = "alltoall" if tag is None else f"alltoall[{tag}]"
        # The receive cost counts the self-destined payload too.
        column = self._collect(
            per_destination,
            lambda vals: sum(payload_bytes(v) for v in vals),
            op=op,
            personal=True,
        )
        sent_to = [payload_bytes(p) for p in per_destination]
        self.stats.messages_sent += sum(
            1 for dest, nbytes in enumerate(sent_to)
            if dest != self.rank and nbytes > 0
        )
        sent_bytes = sum(
            nbytes for dest, nbytes in enumerate(sent_to) if dest != self.rank
        )
        self.stats.bytes_sent += sent_bytes
        self.stats.record_op(op, nbytes=sent_bytes)
        if TRACER.enabled:
            # Per-destination sent bytes feed the p×p comm matrix built by
            # repro analyze; the diagonal (self-destined payloads) is kept
            # visible but excluded from the bytes_sent aggregate above.
            TRACER.event("comm.sent", rank=self.rank, op=op,
                         seq=self.stats.collectives, sent=sent_to)
        return column

    # ------------------------------------------------------------------
    # Buffered point-to-point (the paper's per-phase send buffers)
    # ------------------------------------------------------------------
    def send_buffered(self, dest: int, payload: Any) -> None:
        """Append ``payload`` to the send buffer for ``dest``.

        Nothing moves until :meth:`exchange`; this is the paper's
        "separate send buffer for all adjacent PEs" (Section IV-A).
        """
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        self._outbox.setdefault(dest, []).append(payload)

    def exchange(self) -> list[tuple[int, Any]]:
        """Deliver all buffered sends; return ``(source, payload)`` pairs.

        Implemented as one all-to-all round, which models the paper's
        overlap scheme: updates buffered during phase κ arrive at the
        receiver after the phase boundary.
        """
        per_dest: list[Any] = [self._outbox.get(dest, []) for dest in range(self.size)]
        self._outbox.clear()
        received = self.alltoall(per_dest)
        flat: list[tuple[int, Any]] = []
        for src, payloads in enumerate(received):
            for payload in payloads:
                flat.append((src, payload))
        return flat


class SimComm(CollectiveOps):
    """Rank-local communicator handle (the ``comm`` of the SPMD programs).

    Deterministic ``rng`` seeded from ``(seed, rank)``, per-rank
    :class:`CommStats`, a simulated clock advanced by :meth:`work` and
    the collectives — the same object on a thread and on a process rank.
    """

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.rng = np.random.default_rng((world.seed, rank))
        self.stats = CommStats()
        self._outbox: dict[int, list[Any]] = {}
        self._sim_time = 0.0

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def work(self, units: float) -> None:
        """Account ``units`` of local computation on this rank's clock."""
        self.stats.work_units += units
        self._sim_time += self.world.machine.compute_time(units)

    @property
    def sim_time(self) -> float:
        """This rank's simulated clock, in seconds."""
        return float(self._sim_time)

    # ------------------------------------------------------------------
    # The hub protocol
    # ------------------------------------------------------------------
    def _receive(self, link: Any) -> Any:
        """Blocking receive that polls the world's abort event."""
        try:
            while True:
                if self.world.aborted.is_set():
                    raise _Aborted
                try:
                    return link.get(timeout=_POLL_INTERVAL)
                except queue.Empty:
                    continue
        except (EOFError, OSError):
            self._lost()

    def _send(self, link: Any, message: Any) -> None:
        try:
            link.put(message)
        except OSError:
            self._lost()

    def _lost(self) -> NoReturn:
        """The far end of a link is gone: wait for the abort that follows.

        The launcher sets it when it sees a rank die, and its watchdog
        when a rank returned while this one still waits on it.
        """
        self.world.aborted.wait()
        raise _Aborted

    def _hub(self, value: Any, tag: tuple[str, int, str],
             personal: bool) -> tuple[list[Any], float]:
        """Rank 0: gather every rank's contribution, verify, answer."""
        links = self.world.hub_ends
        gathered: list[Any] = [value] + [None] * (self.size - 1)
        clocks = [self._sim_time] * self.size
        tags = [tag] * self.size
        for src in range(1, self.size):
            gathered[src], clocks[src], tags[src] = self._receive(links[src])
        error = _mismatch_error(tags)
        base = max(clocks)
        for dest in range(1, self.size):
            if error is not None:
                answer = None
            elif personal:
                answer = [row[dest] for row in gathered]
            else:
                answer = list(gathered)  # thread ranks must not share the hub's list
            self._send(links[dest], (answer, base, tags if error is not None else None))
        if error is not None:
            raise error
        return ([row[0] for row in gathered] if personal else gathered), base

    def _collect(
        self,
        value: Any,
        recv_bytes_fn: Callable[[list[Any]], int],
        op: str = "collective",
        personal: bool = False,
    ) -> list[Any]:
        """Gather one value from each rank; advance all clocks in lock-step."""
        world = self.world
        traced = TRACER.enabled  # process-global: uniform across ranks
        if traced:
            wall_t0 = time.perf_counter()
            sim_t0 = self._sim_time
        seq = self.stats.collectives + 1
        world.stamp(self.rank, op, seq)
        tag = (op, seq, _callsite())
        if self.size == 1:
            gathered, base = ([value[0]] if personal else [value]), self._sim_time
        elif self.rank == 0:
            gathered, base = self._hub(value, tag, personal)
        else:
            link = world.rank_ends[self.rank]
            sent = value
            if personal:  # the self-destined payload stays here
                sent = list(value)
                sent[self.rank] = None
            self._send(link, (sent, self._sim_time, tag))
            gathered, base, bad_tags = self._receive(link)
            if bad_tags is not None:
                raise _mismatch_error(bad_tags)
            if personal:
                gathered[self.rank] = value[self.rank]
        # Every rank jumps to the common base, then adds its own receive cost.
        recv = recv_bytes_fn(gathered)
        self._sim_time = base + world.machine.collective_time(self.size, recv)
        self.stats.collectives += 1
        self.stats.record_op(op, count=1)
        if traced:
            TRACER.record_span(
                f"comm.{op}",
                rank=self.rank,
                wall_ts=wall_t0,
                wall_dur=time.perf_counter() - wall_t0,
                sim_ts=sim_t0,
                sim_dur=self._sim_time - sim_t0,
                op=op,
                bytes=int(recv),
                seq=self.stats.collectives,
            )
        return gathered
