"""Simulated message-passing communicator.

Every distributed algorithm in this library is written in SPMD style
against :class:`SimComm`, whose surface mirrors the MPI subset the paper
uses (Section IV): barrier, allreduce, allgather, alltoall(v), broadcast,
exclusive prefix sum (exscan), reduce/gather, and buffered point-to-point
sends delivered at the next exchange — the paper's phase-κ asynchronous
update scheme.

Simulation mechanics
--------------------
``P`` simulated PEs run as ``P`` Python threads over a shared
:class:`World`.  All cross-rank data flows through the collectives, each
of which is two barrier waits around a shared slot array — the canonical
lock-step pattern:

1. write your contribution into ``slots[rank]``; barrier;
2. snapshot whatever the collective needs from ``slots``; barrier
   (so nobody overwrites slots before everyone has read them).

Because the program is SPMD, every rank calls the same collectives in the
same order, so one reusable slot array suffices.

Simulated time
--------------
Each rank accumulates *local work* via :meth:`SimComm.work` (units ≈ edge
traversals).  Every collective synchronises simulated clocks exactly like
a bulk-synchronous superstep: all clocks jump to the maximum across ranks
plus the collective's alpha–beta cost from the :class:`~repro.perf.machine.Machine`
model.  Wall-clock claims in the scaling figures come from these clocks,
while *quality* numbers are real algorithm outputs.

Collective-order sanitizer
--------------------------
The lock-step protocol silently assumes every rank calls the same
collectives in the same order and that nobody touches the shared slot
arrays directly; a violation shows up as a hang or corrupted data.  With
``World(sanitize=True)`` (or ``REPRO_SANITIZE=1`` in the environment)
every collective stamps an ``(op, sequence number, call site)`` tag into
a dedicated slot exchange and verifies, after the first barrier, that all
ranks agree — raising :class:`CollectiveMismatchError` naming the
divergent ranks otherwise.  Direct writes to ``World.slots`` /
``World.scratch`` raise :class:`SharedStateMutationError`, and
``World.sim_time`` becomes a read-only view.  On correct programs the
sanitizer is behaviourally transparent (identical results, clocks and
stats).  The static companion of these checks is :mod:`repro.analysis`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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
    "SharedStateMutationError",
]


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed on which collective to run (SPMD divergence).

    Raised identically on every rank by the sanitizer, with the
    per-rank op tags and the set of divergent ranks in the message.
    """

    def __init__(self, message: str, divergent_ranks: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.divergent_ranks = tuple(divergent_ranks)

    def __reduce__(self):
        # Keep ``divergent_ranks`` across pickling: the process backend
        # ships this exception from worker to parent through a queue.
        return (type(self), (self.args[0], self.divergent_ranks))


class SharedStateMutationError(RuntimeError):
    """Direct write to shared ``World`` state outside ``SimComm``."""


def _env_sanitize() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {
        "1", "true", "yes", "on",
    }


#: source files whose frames the call-site reporter skips — the comm
#: layer itself; :mod:`repro.dist.proc_comm` registers its file too
_INTERNAL_FILES: set[str] = {__file__}


def _callsite(max_frames: int = 2) -> str:
    """Short ``file:line in func`` chain of the first non-comm frames."""
    frame = sys._getframe(2)
    parts: list[str] = []
    while frame is not None and len(parts) < max_frames:
        code = frame.f_code
        if code.co_filename not in _INTERNAL_FILES:
            parts.append(
                f"{os.path.basename(code.co_filename)}:{frame.f_lineno} "
                f"in {code.co_name}"
            )
        frame = frame.f_back
    return " <- ".join(parts) or "<unknown>"


def _mismatch_error(
    tags: Sequence[tuple[str, int, str] | None],
) -> CollectiveMismatchError | None:
    """Build the divergence error from one snapshot of per-rank op tags.

    Returns ``None`` when all ranks agree.  Shared by the thread-backed
    sanitizer (every rank computes the identical verdict from the same
    snapshot) and the process backend's hub (which computes it once and
    broadcasts it), so both backends report divergence identically.
    """
    if len({(t[0], t[1]) for t in tags if t is not None}) <= 1 and None not in tags:
        return None
    # Majority opinion defines the common stream; the rest diverged.
    counts: dict[tuple[str, int], int] = {}
    for tag in tags:
        if tag is not None:
            key = (tag[0], tag[1])
            counts[key] = counts.get(key, 0) + 1
    majority = max(counts, key=lambda key: counts[key])
    divergent = [
        r for r, tag in enumerate(tags)
        if tag is None or (tag[0], tag[1]) != majority
    ]
    lines = [
        f"  rank {r}: "
        + (f"{tag[0]} #{tag[1]} at {tag[2]}" if tag is not None else "<no collective>")
        for r, tag in enumerate(tags)
    ]
    return CollectiveMismatchError(
        f"collective order mismatch (SPMD divergence): rank(s) {divergent} "
        f"diverged from the common stream ({majority[0]} #{majority[1]}):\n"
        + "\n".join(lines),
        divergent_ranks=divergent,
    )


class _GuardedList(list):
    """Slot array that rejects writes unless SimComm holds the write token.

    The token lives in the world's thread-local state, so a rank writing
    ``world.slots[...]`` directly — racing the lock-step protocol — is
    caught at the write, with rank attribution.
    """

    __slots__ = ("_world", "_name")

    def __init__(self, world: "World", name: str, items: list[Any]) -> None:
        super().__init__(items)
        self._world = world
        self._name = name

    def _check(self) -> None:
        local = self._world._local
        if getattr(local, "unlocked", False):
            return
        rank = getattr(local, "rank", None)
        who = f"rank {rank}" if rank is not None else "caller"
        raise SharedStateMutationError(
            f"{who} wrote World.{self._name} directly; shared state may only "
            f"be mutated through SimComm collectives (MUT-SHARED)"
        )

    def __setitem__(self, index, value):
        self._check()
        return super().__setitem__(index, value)

    def __delitem__(self, index):
        self._check()
        return super().__delitem__(index)

    def _mutator(name):  # noqa: N805 - decorator-style helper, not a method
        def guarded(self, *args, **kwargs):
            self._check()
            return getattr(super(_GuardedList, self), name)(*args, **kwargs)
        guarded.__name__ = name
        return guarded

    append = _mutator("append")
    extend = _mutator("extend")
    insert = _mutator("insert")
    pop = _mutator("pop")
    remove = _mutator("remove")
    clear = _mutator("clear")
    sort = _mutator("sort")
    reverse = _mutator("reverse")
    del _mutator


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


class World:
    """Shared state for one SPMD execution of ``size`` simulated PEs.

    ``sanitize=None`` (the default) defers to the ``REPRO_SANITIZE``
    environment variable; an explicit ``True``/``False`` wins over it.
    """

    def __init__(
        self,
        size: int,
        machine: Machine | None = None,
        seed: int = 0,
        sanitize: bool | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.machine = machine or SERIAL
        self.seed = seed
        self.sanitize = _env_sanitize() if sanitize is None else bool(sanitize)
        self.barrier = threading.Barrier(size)
        self._local = threading.local()
        if self.sanitize:
            self.slots: list[Any] = _GuardedList(self, "slots", [None] * size)
            self.scratch: list[Any] = _GuardedList(self, "scratch", [None] * size)
        else:
            self.slots = [None] * size
            self.scratch = [None] * size
        self._sim_time = np.zeros(size, dtype=np.float64)
        self._sim_time_ro = self._sim_time.view()
        self._sim_time_ro.setflags(write=False)
        self.stats = [CommStats() for _ in range(size)]
        #: per-rank (op, collective count) stamped at collective entry;
        #: the deadlock watchdog reads it to say where a rank is stuck.
        self.progress: list[tuple[str, int] | None] = [None] * size
        #: per-rank (op, seq, call site) tags of the collective in flight
        self._san_tags: list[tuple[str, int, str] | None] = [None] * size
        self.aborted = False

    @property
    def sim_time(self) -> np.ndarray:
        """Per-rank simulated clocks (read-only under the sanitizer)."""
        return self._sim_time_ro if self.sanitize else self._sim_time

    def abort(self) -> None:
        """Break the barrier so all ranks unwind after a failure."""
        self.aborted = True
        self.barrier.abort()

    def comm(self, rank: int) -> "SimComm":
        """The communicator handle for one rank (call on the rank's thread)."""
        return SimComm(self, rank)


class CollectiveOps:
    """The collective surface, written once over an abstract ``_collect``.

    Subclasses provide ``rank``, ``size``, ``stats``, an ``_outbox`` dict
    and ``_collect(value, recv_bytes_fn, op)`` — which gathers one value
    per rank, advances the subclass's notion of the simulated clock, and
    returns the gathered list indexed by rank.  :class:`SimComm` binds
    this to the thread-backed lock-step protocol;
    :class:`~repro.dist.proc_comm.ProcComm` binds the *same* methods to
    a queue protocol over OS processes, so the two backends cannot drift
    in collective semantics or byte accounting.
    """

    rank: int
    size: int
    _outbox: dict[int, list[Any]]

    def _collect(
        self,
        value: Any,
        recv_bytes_fn: Callable[[list[Any]], int],
        op: str = "collective",
    ) -> list[Any]:
        raise NotImplementedError

    @property
    def stats(self) -> CommStats:
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
        uniform across ranks (they participate in the sanitizer's order
        check).
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

    def allreduce_min(self, value: Any) -> Any:
        """Allreduce with elementwise minimum."""
        return self.allreduce(value, op=np.minimum if isinstance(value, np.ndarray) else min)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root`` to all ranks."""
        values = self._collect(
            value if self.rank == root else None,
            lambda vals: payload_bytes(vals[root]),
            op="bcast",
        )
        return values[root]

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None, root: int = 0) -> Any:
        """Reduce to ``root``; other ranks receive ``None``."""
        result = self.allreduce(value, op)
        return result if self.rank == root else None

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather all values at ``root``; other ranks receive ``None``."""
        values = self.allgather(value)
        return values if self.rank == root else None

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
        across ranks (they participate in the sanitizer's order check).
        """
        if len(per_destination) != self.size:
            raise ValueError("alltoall needs exactly one payload per rank")
        op = "alltoall" if tag is None else f"alltoall[{tag}]"
        rows = self._collect(
            list(per_destination),
            lambda vals: sum(payload_bytes(row[self.rank]) for row in vals),
            op=op,
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
        return [rows[src][self.rank] for src in range(self.size)]

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
    """Rank-local communicator handle (the ``comm`` of the SPMD programs)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.rng = np.random.default_rng((world.seed, rank))
        self._outbox: dict[int, list[Any]] = {}
        self._inbox: list[tuple[int, Any]] = []
        self._seq = 0  # collectives issued by this rank (sanitizer tags)
        # Remember which rank runs on this thread, for mutation attribution.
        world._local.rank = rank

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def work(self, units: float) -> None:
        """Account ``units`` of local computation on this rank's clock."""
        stats = self.world.stats[self.rank]
        stats.work_units += units
        self.world._sim_time[self.rank] += self.world.machine.compute_time(units)

    @property
    def sim_time(self) -> float:
        """This rank's simulated clock, in seconds."""
        return float(self.world._sim_time[self.rank])

    @property
    def stats(self) -> CommStats:
        return self.world.stats[self.rank]

    # ------------------------------------------------------------------
    # The lock-step core
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        self.world.barrier.wait()

    def _put(self, container: list[Any], value: Any) -> None:
        """Write ``container[self.rank]`` holding the sanitizer write token."""
        world = self.world
        if world.sanitize:
            world._local.unlocked = True
            try:
                container[self.rank] = value
            finally:
                world._local.unlocked = False
        else:
            container[self.rank] = value

    def _verify_tags(self) -> None:
        """After the first barrier: do all ranks run the same collective?

        Every rank computes the identical verdict from the same snapshot.
        """
        error = _mismatch_error(list(self.world._san_tags))
        if error is not None:
            raise error

    def _collect(
        self,
        value: Any,
        recv_bytes_fn: Callable[[list[Any]], int],
        op: str = "collective",
    ) -> list[Any]:
        """Gather one value from each rank; advance all clocks in lock-step."""
        world = self.world
        traced = TRACER.enabled  # process-global: uniform across ranks
        if traced:
            wall_t0 = time.perf_counter()
            sim_t0 = float(world._sim_time[self.rank])
        world.progress[self.rank] = (op, self.stats.collectives + 1)
        if world.sanitize:
            self._seq += 1
            world._san_tags[self.rank] = (op, self._seq, _callsite())
        self._put(world.slots, value)
        self._sync()
        if world.sanitize:
            self._verify_tags()
        gathered = list(world.slots)
        # Deterministic clock update: every rank computes the same new base
        # time from the snapshot, then adds its own receive cost.
        self._put(world.scratch, world._sim_time[self.rank])
        self._sync()
        base = max(world.scratch)  # type: ignore[type-var]
        recv = recv_bytes_fn(gathered)
        world._sim_time[self.rank] = base + world.machine.collective_time(self.size, recv)
        self.stats.collectives += 1
        self.stats.record_op(op, count=1)
        self._sync()
        if traced:
            sim_t1 = float(world._sim_time[self.rank])
            TRACER.record_span(
                f"comm.{op}",
                rank=self.rank,
                wall_ts=wall_t0,
                wall_dur=time.perf_counter() - wall_t0,
                sim_ts=sim_t0,
                sim_dur=sim_t1 - sim_t0,
                op=op,
                bytes=int(recv),
                seq=self.stats.collectives,
            )
        return gathered
