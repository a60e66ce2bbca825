"""Queue-backed communicator over real OS processes (the process backend).

:class:`ProcComm` implements the same collective surface as
:class:`~repro.dist.comm.SimComm` — it inherits every collective from
:class:`~repro.dist.comm.CollectiveOps` and only rebinds the ``_collect``
core — but the ranks are ``multiprocessing`` workers (spawn context)
instead of threads, so p ranks really do run on p cores.

Protocol
--------
Rank 0 doubles as the *hub* of every collective.  Each non-zero rank
puts ``(rank, sanitizer tag, value, simulated clock)`` on the shared
up-queue; the hub gathers ``size - 1`` contributions plus its own,
verifies the sanitizer tags (one verdict, computed with the same
:func:`~repro.dist.comm._mismatch_error` the thread backend uses),
computes the new clock base ``max(clocks)``, and answers every rank on
its private down-queue.  Each rank then applies the identical clock rule
as the thread backend — ``base + machine.collective_time(size, recv)``
— so per-rank simulated clocks, :class:`~repro.dist.comm.CommStats`
and trace spans are bit-identical across the two backends for the same
program (test-enforced).

Failure handling
----------------
All blocking queue operations poll a shared abort event: when any rank
fails (or the parent's deadlock watchdog fires), the event is set and
every blocked rank unwinds via the internal ``_Aborted`` signal instead
of hanging.  A shared progress table (one ``(op, seq)`` slot per rank,
single writer) lets the parent name where each stuck rank last was —
the process-backend analogue of ``World.progress``.
"""

from __future__ import annotations

import queue as _queue
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..obsv.tracer import TRACER
from ..perf.machine import SERIAL, Machine
from .comm import (
    CollectiveOps,
    CommStats,
    _INTERNAL_FILES,
    _callsite,
    _env_sanitize,
    _mismatch_error,
)

__all__ = ["ProcWorld", "ProcComm", "make_proc_world"]

# Collective call sites should point at user code, not at this file.
_INTERNAL_FILES.add(__file__)

#: bytes reserved per rank for the op name in the shared progress table
_OP_SLOT = 32

#: abort-event poll interval for blocking queue operations, seconds
_POLL_INTERVAL = 0.05


class _Aborted(BaseException):
    """Internal unwind signal: another rank failed or the parent aborted.

    Derives from ``BaseException`` so SPMD programs that catch broad
    ``Exception`` cannot swallow the shutdown.
    """


@dataclass
class ProcWorld:
    """Shared plumbing for one process-backend execution (picklable).

    Built by :func:`make_proc_world` in the parent and shipped to every
    worker through the spawn machinery; all members are either plain
    data or multiprocessing primitives that support spawn inheritance.
    """

    size: int
    machine: Machine
    seed: int
    sanitize: bool
    up_queue: Any  # mp.Queue: worker -> hub contributions
    down_queues: list  # per-rank mp.Queue: hub -> worker answers
    abort: Any  # mp.Event
    progress_seq: Any  # mp.RawArray('q', size): collectives entered
    progress_op: Any  # mp.RawArray('c', size * _OP_SLOT): op names

    def progress(self, rank: int) -> tuple[str, int] | None:
        """``(op, seq)`` of the collective ``rank`` last entered, if any."""
        seq = int(self.progress_seq[rank])
        if seq <= 0:
            return None
        raw = bytes(self.progress_op[rank * _OP_SLOT:(rank + 1) * _OP_SLOT])
        return raw.rstrip(b"\x00").decode("utf-8", "replace"), seq

    def cancel_feeders(self) -> None:
        """Detach this process's queue feeder threads (abort paths only)."""
        for q in (self.up_queue, *self.down_queues):
            try:
                q.cancel_join_thread()
            except (AttributeError, OSError):
                pass


def make_proc_world(
    ctx, size: int, machine: Machine | None, seed: int, sanitize: bool | None
) -> ProcWorld:
    """Allocate the shared queues/event/progress table on context ``ctx``."""
    if size < 1:
        raise ValueError("world size must be >= 1")
    return ProcWorld(
        size=size,
        machine=machine or SERIAL,
        seed=seed,
        sanitize=_env_sanitize() if sanitize is None else bool(sanitize),
        up_queue=ctx.Queue(),
        down_queues=[ctx.Queue() for _ in range(size)],
        abort=ctx.Event(),
        progress_seq=ctx.RawArray("q", size),
        progress_op=ctx.RawArray("c", size * _OP_SLOT),
    )


class ProcComm(CollectiveOps):
    """Rank-local communicator of the process backend.

    Same contract as :class:`~repro.dist.comm.SimComm`: deterministic
    ``rng`` seeded from ``(seed, rank)``, per-rank ``CommStats``, a
    simulated clock advanced by ``work`` and the collectives.
    """

    def __init__(self, world: ProcWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.machine = world.machine
        self.sanitize = world.sanitize
        self.rng = np.random.default_rng((world.seed, rank))
        self._outbox: dict[int, list[Any]] = {}
        self._seq = 0  # collectives issued by this rank (sanitizer tags)
        self._sim_time = 0.0
        self._stats = CommStats()

    # ------------------------------------------------------------------
    # Cost accounting (local state: each rank is its own process)
    # ------------------------------------------------------------------
    def work(self, units: float) -> None:
        """Account ``units`` of local computation on this rank's clock."""
        self._stats.work_units += units
        self._sim_time += self.machine.compute_time(units)

    @property
    def sim_time(self) -> float:
        """This rank's simulated clock, in seconds."""
        return float(self._sim_time)

    @property
    def stats(self) -> CommStats:
        return self._stats

    # ------------------------------------------------------------------
    # The queue-backed core
    # ------------------------------------------------------------------
    def _get(self, q: Any) -> Any:
        """Blocking get that polls the shared abort event."""
        while True:
            if self.world.abort.is_set():
                raise _Aborted
            try:
                return q.get(timeout=_POLL_INTERVAL)
            except _queue.Empty:
                continue

    def _stamp_progress(self, op: str) -> None:
        world = self.world
        raw = op.encode("utf-8")[: _OP_SLOT]
        pad = raw + b"\x00" * (_OP_SLOT - len(raw))
        world.progress_op[self.rank * _OP_SLOT:(self.rank + 1) * _OP_SLOT] = pad
        world.progress_seq[self.rank] = self._stats.collectives + 1

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
            sim_t0 = self._sim_time
        self._stamp_progress(op)
        tag = None
        if self.sanitize:
            self._seq += 1
            tag = (op, self._seq, _callsite())
        if self.size == 1:
            gathered: list[Any] = [value]
            base = self._sim_time
        elif self.rank == 0:
            # Hub: gather everyone, verify, answer everyone.
            gathered = [None] * self.size
            clocks = [0.0] * self.size
            tags: list[tuple[str, int, str] | None] = [None] * self.size
            gathered[0], clocks[0], tags[0] = value, self._sim_time, tag
            for _ in range(self.size - 1):
                src, src_tag, src_value, src_clock = self._get(world.up_queue)
                gathered[src] = src_value
                clocks[src] = src_clock
                tags[src] = src_tag
            error = _mismatch_error(tags) if self.sanitize else None
            base = max(clocks)
            answer = ("err", error) if error is not None else ("ok", gathered, base)
            for q in world.down_queues[1:]:
                q.put(answer)
            if error is not None:
                raise error
        else:
            world.up_queue.put((self.rank, tag, value, self._sim_time))
            answer = self._get(world.down_queues[self.rank])
            if answer[0] == "err":
                raise answer[1]
            _, gathered, base = answer
        # Identical clock rule to SimComm._collect: every rank jumps to
        # the common base, then adds its own receive cost.
        recv = recv_bytes_fn(gathered)
        self._sim_time = base + self.machine.collective_time(self.size, recv)
        self._stats.collectives += 1
        self._stats.record_op(op, count=1)
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
                seq=self._stats.collectives,
            )
        return gathered
