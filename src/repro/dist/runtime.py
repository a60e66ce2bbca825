"""SPMD execution engine: the two launchers of the simulated PEs.

:func:`run_spmd` runs one Python thread per PE, :func:`run_spmd_processes`
one spawned OS process per PE (the input graph parked once in shared
memory, so p ranks really do run on p cores).  Both run the same
rank-parametric program against the same
:class:`~repro.dist.comm.SimComm`, and every rank reports ``(result,
sim_time, stats)``.  If any rank raises, the world's abort event is set
so the remaining ranks unwind instead of deadlocking, and the lowest
failing rank's exception is re-raised in the caller — including
simulated :class:`~repro.perf.memory.OutOfMemoryError`, which the bench
harness catches to produce the paper's ``*`` table entries.

A wall-clock watchdog guards the join: a program that diverges on its
collective order (one rank waiting in a collective the others never
reach) raises :class:`SpmdDeadlockError` naming the stuck ranks and the
collective each one last entered, instead of hanging the caller forever.
The default budget is 60 seconds, overridable per call (``timeout=``;
``0`` disables the watchdog).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .. import native
from ..graph.csr import Graph
from ..graph.store import SharedCSRHandle, SharedMemoryStore
from ..obsv.tracer import TRACER
from ..perf.machine import Machine
from ..perf.rss import memory_sample
from .comm import CommStats, SimComm, World, _Aborted

__all__ = [
    "SpmdResult",
    "SpmdDeadlockError",
    "run_spmd",
    "run_spmd_processes",
    "DEFAULT_SPMD_TIMEOUT",
]

#: default wall-clock watchdog for one SPMD execution, in seconds
DEFAULT_SPMD_TIMEOUT = 60.0


def _emit_rank_memory(size: int, *, shared: bool) -> None:
    """One ``mem.rank`` event per rank with this process's RSS sample.

    On the thread backend every simulated PE lives in one OS process, so
    the per-rank numbers are the same sample flagged ``shared=True``; the
    process backend emits real per-worker samples from
    :func:`_proc_worker` instead.
    """
    if not TRACER.enabled:
        return
    sample = memory_sample()
    for rank in range(size):
        TRACER.event("mem.rank", rank=rank, shared=shared, **sample)


class SpmdDeadlockError(RuntimeError):
    """An SPMD program hung past the watchdog (collective divergence).

    ``stuck_ranks`` lists the ranks that were still running when the
    watchdog fired; the message says which collective each one had last
    entered.
    """

    def __init__(self, message: str, stuck_ranks: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.stuck_ranks = tuple(stuck_ranks)


def _resolve_timeout(timeout: float | None) -> float | None:
    """The watchdog budget: 60 s for ``None``, none at all for <= 0."""
    if timeout is None:
        timeout = DEFAULT_SPMD_TIMEOUT
    return timeout if timeout > 0 else None


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    per_rank: list[Any]
    sim_time: float  # max simulated clock over all ranks, seconds
    sim_times: np.ndarray  # per-rank clocks
    stats: list[CommStats]

    @classmethod
    def from_reports(cls, reports: list[tuple[Any, float, CommStats]]) -> "SpmdResult":
        """Assemble the per-rank ``(result, sim_time, stats)`` reports."""
        per_rank, clocks, stats = zip(*reports)
        sim_times = np.array(clocks)
        return cls(list(per_rank), float(sim_times.max()), sim_times, list(stats))

    @property
    def value(self) -> Any:
        """Rank 0's return value (SPMD programs usually agree anyway)."""
        return self.per_rank[0]

    @property
    def total_work(self) -> float:
        return sum(s.work_units for s in self.stats)

    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.stats)


def _run_inline(world: World, program: Callable[..., Any], args: tuple,
                kwargs: dict, *, shared: bool) -> SpmdResult:
    """``size == 1``: the one rank runs on the caller's thread."""
    comm = world.comm(0)
    result = program(comm, *args, **kwargs)
    _emit_rank_memory(1, shared=shared)
    return SpmdResult.from_reports([(result, comm.sim_time, comm.stats)])


def _deadlock_error(world: World, stuck: tuple[int, ...],
                    wall_budget: float) -> SpmdDeadlockError:
    """The watchdog's report: where each stuck rank last was."""
    details = []
    for rank in stuck:
        progress = world.progress(rank)
        where = (
            f"last entered collective #{progress[1]} ({progress[0]})"
            if progress is not None
            else "before its first collective"
        )
        last = TRACER.last_span(rank) if TRACER.enabled else None
        if last is not None:
            where += f"; last trace span: {last}"
        details.append(f"  rank {rank}: {where}")
    return SpmdDeadlockError(
        f"SPMD deadlock: rank(s) {list(stuck)} still running after "
        f"{wall_budget:.1f}s wall clock; some ranks diverged from "
        "the common collective order:\n" + "\n".join(details),
        stuck_ranks=stuck,
    )


def _raise_first(errors: list[tuple[int, BaseException]], aborted: list[int],
                 where: str = "") -> None:
    """Re-raise the lowest failing rank's exception, noting the rank.

    ``aborted`` are the ranks that unwound on the abort event; with no
    failure to explain them that is itself an error.
    """
    if errors:
        rank, first = min(errors, key=lambda pair: pair[0])
        first.add_note(f"raised on SPMD rank {rank}{where}")
        raise first from None
    if aborted:
        raise RuntimeError(
            f"rank(s) {aborted} unwound through an abort with no failure "
            "recorded anywhere (unexpected state)"
        )


def run_spmd(
    size: int,
    program: Callable[..., Any],
    *args: Any,
    machine: Machine | None = None,
    seed: int = 0,
    timeout: float | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``program(comm, *args, **kwargs)`` on ``size`` simulated PEs.

    The program must be SPMD: every rank calls the same sequence of
    collectives.  Per-rank randomness should come from ``comm.rng``, which
    is deterministically seeded from ``(seed, rank)``.

    ``timeout`` bounds the wall-clock join (``None`` is 60 s; <= 0
    disables).
    """
    world = World(size, machine=machine, seed=seed)
    TRACER.annotate_header(backend="spmd", p=size)
    if size == 1:
        return _run_inline(world, program, args, kwargs, shared=True)

    reports: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def run_rank(rank: int) -> None:
        try:
            comm = world.comm(rank)
            result = program(comm, *args, **kwargs)
        except _Aborted:
            return  # the echo of a failure recorded elsewhere
        except BaseException as exc:  # noqa: BLE001 - must propagate any failure
            errors.append((rank, exc))
            world.abort()  # unblock the sibling ranks
            return
        reports[rank] = (result, comm.sim_time, comm.stats)

    threads = [
        threading.Thread(target=run_rank, args=(rank,), name=f"pe-{rank}", daemon=True)
        for rank in range(size)
    ]
    for t in threads:
        t.start()

    wall_budget = _resolve_timeout(timeout)
    deadline = None if wall_budget is None else time.monotonic() + wall_budget
    for t in threads:
        t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
    stuck = tuple(rank for rank, t in enumerate(threads) if t.is_alive())
    if stuck:
        # A failure recorded by some rank wins over the deadlock report.
        deadlock = None if errors else _deadlock_error(world, stuck, wall_budget)
        world.abort()  # the stuck ranks unwind at their next poll
        for t in threads:
            t.join(1.0)
        if deadlock is not None:
            raise deadlock
    _raise_first(errors, [r for r, report in enumerate(reports) if report is None])
    _emit_rank_memory(size, shared=True)
    return SpmdResult.from_reports(reports)


# ---------------------------------------------------------------------------
# Process backend: the same contract over real OS processes
# ---------------------------------------------------------------------------

#: grace period for a result already in flight when its worker exits
_CRASH_GRACE = 2.0


@dataclass
class _WorkerSpec:
    """Everything one spawned worker needs (picklable at spawn)."""

    rank: int
    world: World
    program: bytes  # pickled rank-parametric program
    payload: bytes  # pickled (args, kwargs)
    graph_handle: SharedCSRHandle | None
    kernels: str  # the parent's compiled kernels: ranks never compile
    result_queue: Any
    trace: bool
    wall_origin: float


def _proc_worker(spec: _WorkerSpec) -> None:
    """Worker entry point: run the program on one rank, report via queue."""
    if spec.trace:
        TRACER.enable(reset=True)
        # Share the parent's wall origin: perf_counter is CLOCK_MONOTONIC
        # system-wide on Linux, so merged spans share one timeline.
        TRACER._wall_origin = spec.wall_origin
    status = "ok"
    result: Any = None
    comm: SimComm | None = None
    store: SharedMemoryStore | None = None
    try:
        native.adopt(spec.kernels)
        program = pickle.loads(spec.program)
        args, kwargs = pickle.loads(spec.payload)
        if spec.graph_handle is not None:
            # Read-only zero-copy views; the segments belong to the parent.
            store = SharedMemoryStore.attach(spec.graph_handle)
            args = (Graph.from_store(store), *args)
        comm = spec.world.comm(spec.rank)
        result = program(comm, *args, **kwargs)
    except _Aborted:
        status = "aborted"
    except BaseException as exc:  # noqa: BLE001 - must propagate any failure
        status = "err"
        result = exc
        spec.world.abort()  # unblock the sibling ranks
    sim_time = comm.sim_time if comm is not None else 0.0
    stats = comm.stats if comm is not None else CommStats()
    if spec.trace:
        # Real per-worker memory: each rank is its own OS process, so this
        # VmHWM/VmRSS sample is exactly this rank's footprint.  The event
        # rides the worker's record buffer through Tracer.absorb.
        TRACER.event("mem.rank", rank=spec.rank, shared=False, **memory_sample())
    records = TRACER.snapshot() if spec.trace else []
    payload = (status, result, sim_time, stats, records)
    try:
        # Pickle before putting: mp.Queue pickles in a feeder thread, so
        # an unpicklable result would otherwise hang the parent instead
        # of failing this rank.
        data = pickle.dumps(payload)
    except Exception as exc:
        fallback: BaseException = RuntimeError(
            f"rank {spec.rank} produced an unpicklable "
            f"{'result' if status == 'ok' else 'exception'}: {exc}"
        )
        data = pickle.dumps(("err", fallback, sim_time, stats, []))
    spec.result_queue.put((spec.rank, data))
    if status != "ok":
        # Abort path: don't let unflushed hub answers block process exit.
        # (On the clean path the feeder must flush — a sibling may still
        # be waiting on the final collective's answer.)
        for q in (spec.world.up_queue, *spec.world.down_queues):
            q.cancel_join_thread()
    del store  # keep the shm views alive until the program returned


def run_spmd_processes(
    size: int,
    program: Callable[..., Any],
    *args: Any,
    graph: Any = None,
    machine: Machine | None = None,
    seed: int = 0,
    # Accepted and ignored: the collective-order check is always on.
    # ``benchmarks/e2e/child.py`` is frozen by BENCHMARK.json and passes
    # ``sanitize=config.sanitize``; a [benchmark] refresh drops the name.
    sanitize: bool | None = None,
    timeout: float | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``program`` on ``size`` real OS processes (the process backend).

    Mirrors :func:`run_spmd` — same program contract, same ``timeout``
    resolution, same :class:`SpmdResult` — but the ranks are
    ``multiprocessing`` workers under the spawn context.

    ``program`` and its arguments must be picklable (module-level
    functions; no closures).  When ``graph`` is given, its CSR arrays
    are parked in shared memory once and each worker receives the
    reconstructed zero-copy read-only :class:`~repro.graph.csr.Graph`
    as the first argument after ``comm``; the parent unlinks the
    segments on every exit path, including worker crashes.

    The deadlock watchdog joins on a wall-clock budget and raises
    :class:`SpmdDeadlockError` naming the stuck ranks via the world's
    progress table; a worker that dies without reporting raises with
    its rank and exit code.  Per-rank simulated clocks and
    :class:`~repro.dist.comm.CommStats` are bit-identical to
    :func:`run_spmd` for the same program (test-enforced) — only the
    wall clock differs, which is the point.
    """
    wall_budget = _resolve_timeout(timeout)
    TRACER.annotate_header(backend="process", p=size)
    if size == 1:
        # One rank needs no processes (and no shm round trip).
        world = World(size, machine=machine, seed=seed)
        call_args = args if graph is None else (graph, *args)
        return _run_inline(world, program, call_args, kwargs, shared=False)

    # Build (or find) the compiled kernels here, once, so p ranks on a
    # cold cache do not each run the compiler (and a host without one
    # fails before anything is created).
    kernels = native.resolve()
    TRACER.annotate_header(lp_kernel="native")
    ctx = multiprocessing.get_context("spawn")
    world = World(size, machine=machine, seed=seed, ctx=ctx)
    prog_bytes = pickle.dumps(program)
    payload = pickle.dumps((args, kwargs))
    result_queue = ctx.Queue()
    # From here on every path, a failing ``start()`` included, reaches the
    # ``finally`` below: the segments are the parent's to unlink.
    shared = SharedMemoryStore.create(graph) if graph is not None else None
    procs: list = []
    outcomes: dict[int, tuple] = {}
    try:
        for rank in range(size):
            spec = _WorkerSpec(
                rank=rank, world=world, program=prog_bytes, payload=payload,
                graph_handle=None if shared is None else shared.handle,
                kernels=kernels, result_queue=result_queue,
                trace=TRACER.enabled, wall_origin=TRACER._wall_origin,
            )
            proc = ctx.Process(target=_proc_worker, args=(spec,),
                               name=f"pe-{rank}", daemon=True)
            # Listed only once started: a rank whose start() raised (an
            # unpicklable spec, EAGAIN, an unguarded __main__) cannot be
            # joined, and the error to report is that one.
            proc.start()
            procs.append(proc)
        deadline = None if wall_budget is None else time.monotonic() + wall_budget
        pending = set(range(size))
        crashed: list[int] = []
        stuck: tuple[int, ...] = ()
        grace_until: float | None = None
        while pending:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                stuck = tuple(sorted(pending))
                break
            try:
                rank, data = result_queue.get(timeout=0.1)
            except _queue.Empty:
                dead = [
                    r for r in sorted(pending)
                    if not procs[r].is_alive() and procs[r].exitcode is not None
                ]
                if not dead:
                    continue
                # The result may still be in flight through the queue's
                # feeder pipe; give it a moment before calling it a crash.
                if grace_until is None:
                    grace_until = now + _CRASH_GRACE
                elif now >= grace_until:
                    crashed = dead
                    break
                continue
            outcomes[rank] = pickle.loads(data)
            pending.discard(rank)

        if crashed:
            world.abort()
            codes = ", ".join(
                f"rank {r} (exit code {procs[r].exitcode})" for r in crashed
            )
            raise RuntimeError(
                f"SPMD worker process(es) died without reporting a result: "
                f"{codes}; {len(pending)}/{size} ranks never finished"
            )
        if stuck:
            world.abort()
            raise _deadlock_error(world, stuck, wall_budget)
    finally:
        try:
            if len(outcomes) < size:
                world.abort()  # some rank never reported; unwind the rest
            for proc in procs:
                proc.join(timeout=1.0)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():  # SIGTERM ignored or blocked: no rank outlives the run
                    proc.kill()
                    proc.join(timeout=1.0)
            for q in (result_queue, world.up_queue, *world.down_queues):
                q.close()
        finally:
            if shared is not None:
                shared.unlink()

    _raise_first(
        [(rank, out[1]) for rank, out in outcomes.items() if out[0] == "err"],
        sorted(rank for rank, out in outcomes.items() if out[0] == "aborted"),
        where=" (process backend)",
    )
    if TRACER.enabled:
        for rank in range(size):
            TRACER.absorb(outcomes[rank][4])
    return SpmdResult.from_reports([outcomes[rank][1:4] for rank in range(size)])
