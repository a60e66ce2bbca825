"""SPMD execution engine: the two launchers of the simulated PEs.

:func:`run_spmd` runs one Python thread per PE, :func:`run_spmd_processes`
one OS process per PE (the input graph parked once in shared memory,
so p ranks really do run on p cores).  Both run the same
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

Process ranks are forked from one ``forkserver`` per interpreter,
:data:`PROCESS_CONTEXT`: the first process call starts it in the
directory that holds ``repro``, it imports this module and
:mod:`repro.dist.dist_partitioner` once, and every call forks warm ranks
from it that import nothing and end through ``os._exit``.  A rank is a
child of the server, not of the caller, so it sees the environment
variables as they were at the first process call.  ``multiprocessing``
still sends the caller's ``sys.path``, working directory and
``__main__`` script with every rank, which re-imports that script (so a
script read from stdin cannot start ranks).  A rank holds only its own
pipes: its link to the hub (:class:`~repro.dist.comm.World`) and the
one it reports ``(result, sim_time, stats)`` on.  The launcher waits on
the result pipes and the ranks' sentinels together, so a rank that dies
without reporting reads as EOF at once.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
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

#: the one ``multiprocessing`` context of process ranks: a fork server
#: started on the first process call
PROCESS_CONTEXT = multiprocessing.get_context("forkserver")

#: the directory that holds the ``repro`` package the caller imported
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _ensure_server() -> None:
    """Start the fork server, unless it runs, preloaded with what a rank runs.

    The server builds its ``sys.path`` from the environment and its
    working directory, not from the caller's ``sys.path`` (Python 3.11's
    ``forkserver.main`` drops the one it is handed), and it skips a
    preload it cannot import.  So it starts in the directory that holds
    this package, which the leading ``''`` entry of its ``sys.path``
    makes the first place it imports ``repro`` from: a caller that
    reaches ``repro`` through a ``sys.path`` edit gets warm ranks too.
    The caller's working directory moves there only for this call, and
    its ranks still start in the caller's (``multiprocessing`` sends it).
    The preload is set here, not at import: it loads ``multiprocessing``'s
    server module, which a process that never starts a rank does not need.
    """
    from multiprocessing import forkserver

    PROCESS_CONTEXT.set_forkserver_preload(["repro.dist.runtime", "repro.dist.dist_partitioner"])
    home = os.getcwd()
    os.chdir(_PACKAGE_ROOT)
    try:
        forkserver.ensure_running()
    finally:
        os.chdir(home)


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

@dataclass
class _WorkerSpec:
    """Everything one process rank needs (pickled to it at its start)."""

    rank: int
    world: World
    program: bytes  # pickled rank-parametric program
    payload: bytes  # pickled (args, kwargs)
    graph_handle: SharedCSRHandle | None
    kernels: str  # the parent's compiled kernels: ranks never compile
    result: Any  # the write end of this rank's result pipe
    trace: bool
    wall_origin: float
    launched: float  # the parent's perf_counter at this rank's start()


def _proc_worker(spec: _WorkerSpec) -> None:
    """Worker entry point: run the program on one rank, report on its pipe."""
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
        TRACER.record_span("launch", rank=spec.rank, wall_ts=spec.launched,
                           wall_dur=time.perf_counter() - spec.launched,
                           sim_ts=None, sim_dur=None)
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
        # Pickle first: an unpicklable result is this rank's error, not its crash.
        data = pickle.dumps(payload)
    except Exception as exc:
        fallback: BaseException = RuntimeError(
            f"rank {spec.rank} produced an unpicklable "
            f"{'result' if status == 'ok' else 'exception'}: {exc}"
        )
        data = pickle.dumps(("err", fallback, sim_time, stats, []))
    spec.result.send_bytes(data)
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
    ``multiprocessing`` workers forked by :data:`PROCESS_CONTEXT`'s
    server (see the module docstring for what a rank inherits).

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

    if getattr(sys.modules["__main__"], "__file__", None) == "<stdin>":
        raise RuntimeError(
            "__main__ was read from stdin, and a process rank cannot "
            "re-import it (every rank re-imports the caller's __main__ "
            "script): run the script from a file, or use thread ranks "
            "(backend='spmd')"
        )
    # Build (or find) the compiled kernels here, once, so p ranks on a
    # cold cache do not each run the compiler (and a host without one
    # fails before anything is created).
    kernels = native.resolve()
    TRACER.annotate_header(lp_kernel="native")
    _ensure_server()
    world = World(size, machine=machine, seed=seed, ctx=PROCESS_CONTEXT)
    results = [PROCESS_CONTEXT.Pipe(duplex=False) for _ in range(size)]  # (read, write)
    prog_bytes = pickle.dumps(program)
    payload = pickle.dumps((args, kwargs))
    # From here on every path, a failing ``start()`` included, reaches the
    # ``finally`` below: the segments are the parent's to unlink.
    shared = SharedMemoryStore.create(graph) if graph is not None else None
    procs: list = []
    outcomes: dict[int, tuple] = {}
    try:
        for rank in range(size):
            spec = _WorkerSpec(
                rank=rank, world=world.for_rank(rank), program=prog_bytes,
                payload=payload, graph_handle=None if shared is None else shared.handle,
                kernels=kernels, result=results[rank][1],
                trace=TRACER.enabled, wall_origin=TRACER._wall_origin,
                launched=time.perf_counter(),
            )
            proc = PROCESS_CONTEXT.Process(target=_proc_worker, args=(spec,),
                                           name=f"pe-{rank}", daemon=True)
            # Listed only once started: a rank whose start() raised (an
            # unpicklable spec, EAGAIN, an unguarded __main__) cannot be
            # joined, and the error to report is that one.
            proc.start()
            procs.append(proc)
        # Each rank holds its own ends now: without the parent's copies a
        # dead rank's links and result pipe read as EOF.
        world.close()
        for _, write in results:
            write.close()
        crashed, stuck = _await_results(world, procs, [read for read, _ in results],
                                        outcomes, wall_budget)
        if crashed:
            codes = ", ".join(
                f"rank {r} (exit code {procs[r].exitcode})" for r in crashed
            )
            unstarted = [r for r in crashed
                         if procs[r].exitcode == 1 and world.progress(r) is None]
            hint = (
                f"; rank(s) {unstarted} died before their first collective. "
                "The usual cause is a calling script that starts partitions "
                "at import: every rank imports the caller's __main__ script, "
                'so put its calls under if __name__ == "__main__":'
                if unstarted else ""
            )
            raise RuntimeError(
                f"SPMD worker process(es) died without reporting a result: "
                f"{codes}; {size - len(outcomes)}/{size} ranks never finished{hint}"
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
            world.close()
            for read, write in results:
                read.close()
                write.close()
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


def _await_results(world: World, procs: list, pipes: list, outcomes: dict[int, tuple],
                   wall_budget: float | None) -> tuple[list[int], tuple[int, ...]]:
    """Read each rank's report into ``outcomes`` as it arrives.

    Waits on the result pipes and the process sentinels together: a
    rank that exits without a report reads as EOF on its pipe, and the
    first such rank aborts the world so that the others end too.
    Returns the ranks that died without a report and, when the watchdog
    fired first, the ranks still running.
    """
    from multiprocessing.connection import wait

    deadline = None if wall_budget is None else time.monotonic() + wall_budget
    owner = {**{pipe: r for r, pipe in enumerate(pipes)},
             **{proc.sentinel: r for r, proc in enumerate(procs)}}
    crashed: list[int] = []
    pending = set(range(len(procs)))
    while pending:
        timeout = None if deadline is None else deadline - time.monotonic()
        if timeout is not None and timeout <= 0:
            break
        ready = wait([obj for r in sorted(pending) for obj in (pipes[r], procs[r].sentinel)],
                     timeout)
        for rank in sorted({owner[obj] for obj in ready} & pending):
            pending.discard(rank)
            try:
                outcomes[rank] = pickle.loads(pipes[rank].recv_bytes())
            except EOFError:
                procs[rank].join(timeout)  # its pipe closed on exit: the exit code is near
                crashed.append(rank)
                world.abort()
    return sorted(crashed), tuple(sorted(pending))
