"""Tests for the process backend runtime (``run_spmd_processes``).

The contract under test: the process backend is *bit-identical* to the
thread backend for the same program — same per-rank values, same
simulated clocks, same :class:`CommStats` — and reproduces the full
failure surface (collective-order check, deadlock watchdog,
rank-attributed errors, crashed-worker detection) over real OS processes.  Shared-memory CSR
segments must be unlinked on every exit path.

All programs live at module level: a rank unpickles its program by
reference, importing this module, so closures or ``__main__``-local
functions cannot cross the process boundary (that is part of the
documented contract).
"""

from __future__ import annotations

import ast
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import partition_graph
from repro.core import fast_config
from repro.dist import (
    CollectiveMismatchError,
    SpmdDeadlockError,
    run_spmd,
    run_spmd_processes,
)
from repro.dist.dist_partitioner import parhip_program
from repro.dist.runtime import DEFAULT_SPMD_TIMEOUT, PROCESS_CONTEXT, _resolve_timeout
from repro.generators import rmat
from repro.generators.mesh import grid_2d
from repro.obsv.tracer import TRACER
from repro.perf.machine import MACHINE_A, SERIAL

from ..conftest import kernel_cache_leftovers


# ---------------------------------------------------------------------------
# module-level programs (process ranks must be able to import them)
# ---------------------------------------------------------------------------

def _mixed_row(comm):
    """One alltoall row: a payload to itself, and ``None``, an empty array
    or a small array to each other rank."""
    def payload(dest):
        if dest == comm.rank:
            return np.full(3, comm.rank, dtype=np.int64)
        return (None, np.empty(0, dtype=np.int64),
                np.arange(dest + comm.rank, dtype=np.int64))[(dest + comm.rank) % 3]
    return [payload(dest) for dest in range(comm.size)]


def _collective_tour(comm, values):
    """One pass over the collective surface, charging simulated work."""
    comm.work(5.0 * (comm.rank + 1))
    gathered = comm.allgather(values[comm.rank])
    total = comm.allreduce(np.array([comm.rank + 1, 2], dtype=np.int64))
    peak = comm.allreduce_max(float(comm.rank))
    root = comm.bcast(values[0] if comm.rank == 0 else None, root=0)
    parts = comm.alltoall([np.full(2, comm.rank, dtype=np.int64)
                           for _ in range(comm.size)])
    mixed = comm.alltoall(_mixed_row(comm), tag="mixed")
    for dest in range(comm.size):  # itself included
        comm.send_buffered(dest, (comm.rank, dest))
    comm.send_buffered(comm.rank, None)
    comm.send_buffered(0, np.empty(0, dtype=np.int64))
    delivered = comm.exchange()
    comm.barrier()
    return (gathered, total.tolist(), peak, root,
            [p.tolist() for p in parts],
            [None if p is None else p.tolist() for p in mixed],
            [(src, p.tolist() if isinstance(p, np.ndarray) else p)
             for src, p in delivered])


def _graph_sum(comm, graph):
    """Read the shared CSR and agree on a checksum."""
    local = int(graph.xadj[-1]) + int(graph.adjncy.sum()) + int(graph.vwgt.sum())
    return comm.allreduce(local)


def _graph_crash(comm, graph):
    if comm.rank == 1:  # deliberate crash
        os._exit(17)
    comm.barrier()
    return int(graph.vwgt.sum())


def _exit_while_peer_sends(comm, graph):
    """Rank 0 dies while rank 1 is sending it a 2 MiB payload."""
    big = np.zeros(1 << 18, dtype=np.int64)
    comm.barrier()
    if comm.rank == 0:  # deliberate crash
        time.sleep(0.2)
        os._exit(23)
    return comm.alltoall([big] * comm.size)


def _exit_after_barrier(comm):
    comm.barrier()
    if comm.rank == 1:  # deliberate crash, as a bare sys.exit(1) would be
        os._exit(1)
    return comm.barrier()


def _order_divergence(comm):
    if comm.rank == 0:  # deliberately divergent
        comm.barrier()
        comm.allgather(comm.rank)
    else:
        comm.allgather(comm.rank)
        comm.barrier()


def _early_return(comm):
    if comm.rank == 0:  # deliberate deadlock
        return None
    comm.allgather(comm.rank)
    return comm.barrier()


def _raise_on_rank_2(comm):
    comm.barrier()
    if comm.rank == 2:  # deliberate failure
        raise ValueError("rank 2 exploded")
    return comm.allgather(comm.rank)


def _parent_pid(comm):
    return os.getppid()


def _imports_of_a_partition(comm, graph):
    """The modules this rank imports while it partitions ``graph``."""
    before = set(sys.modules)
    parhip_program(comm, graph, fast_config(k=4), 0)
    return sorted(set(sys.modules) - before)


VALUES = [10, 20, 30, 40]


# ---------------------------------------------------------------------------
# thread/process parity
# ---------------------------------------------------------------------------

def _traced(launch, *args, **kwargs):
    """``launch(*args, **kwargs)`` traced: the result and every rank's
    ``comm.*`` spans and ``comm.sent`` events, in ``(rank, seq)`` order."""
    TRACER.disable()
    TRACER.reset()
    TRACER.enable()
    try:
        result = launch(*args, **kwargs)
        comm = sorted(
            (r["rank"], r["attrs"]["seq"], r["type"], r["name"],
             r["attrs"].get("bytes"), r["attrs"].get("sent"))
            for r in TRACER.snapshot() if r["name"].startswith("comm.")
        )
    finally:
        TRACER.disable()
        TRACER.reset()
    return result, comm


class TestThreadProcessParity:
    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_collectives_bit_identical(self, size):
        threads, thread_comm = _traced(run_spmd, size, _collective_tour, VALUES,
                                       machine=MACHINE_A, seed=7)
        # sanitize= selects nothing; the frozen benchmarks/e2e/child.py
        # passes it, so the launcher has to keep accepting the name.
        procs, proc_comm = _traced(run_spmd_processes, size, _collective_tour, VALUES,
                                   machine=MACHINE_A, seed=7, sanitize=None)
        assert procs.per_rank == threads.per_rank
        assert np.array_equal(procs.sim_times, threads.sim_times)
        assert procs.sim_time == threads.sim_time
        assert procs.stats == threads.stats
        assert proc_comm == thread_comm
        assert {rank for rank, *_ in thread_comm} == set(range(size))

    def test_alltoall_delivers_each_rank_its_column(self):
        out = run_spmd_processes(3, _collective_tour, VALUES).per_rank
        for rank, result in enumerate(out):
            mixed, delivered = result[5], result[6]
            assert mixed[rank] == [rank] * 3
            for src in range(3):
                if src != rank:
                    expect = (None, [], list(range(src + rank)))[(src + rank) % 3]
                    assert mixed[src] == expect
            assert [src for src, _ in delivered] == sorted(src for src, _ in delivered)
            assert (rank, rank) in [payload for _, payload in delivered]
            assert sum(1 for src, p in delivered if src == rank and p is None) == 1

    def test_serial_machine_parity(self):
        threads = run_spmd(4, _collective_tour, VALUES, machine=SERIAL)
        procs = run_spmd_processes(4, _collective_tour, VALUES, machine=SERIAL)
        assert procs.per_rank == threads.per_rank
        assert np.array_equal(procs.sim_times, threads.sim_times)


# ---------------------------------------------------------------------------
# shared-memory CSR lifecycle
# ---------------------------------------------------------------------------

class TestSharedCSR:
    def test_graph_roundtrip_and_cleanup(self, no_shm_leak, no_child_left):
        graph = grid_2d(12, 12)
        expected = (int(graph.xadj[-1]) + int(graph.adjncy.sum())
                    + int(graph.vwgt.sum())) * 4
        result = run_spmd_processes(4, _graph_sum, graph=graph)
        assert result.value == expected
        assert result.per_rank == [expected] * 4

    def test_segments_unlinked_after_worker_crash(self, no_shm_leak):
        graph = grid_2d(8, 8)
        with pytest.raises(RuntimeError) as exc:
            run_spmd_processes(4, _graph_crash, graph=graph, timeout=60)
        msg = str(exc.value)
        assert "rank 1" in msg and "exit code 17" in msg
        assert "__main__" not in msg  # not the exit of a failed import
        # ranks never build the LP kernel, so a killed one leaves no
        # half-written file in its cache
        assert kernel_cache_leftovers() == []

    def test_a_rank_that_fails_to_start(self, no_shm_leak, monkeypatch):
        """``start()`` raising on rank 1 (EAGAIN, an unguarded ``__main__``,
        an unpicklable spec) is the error the caller sees: no join of the
        ranks that never started, rank 0 stopped, the segments unlinked."""
        started = []
        real_start = PROCESS_CONTEXT.Process.start

        def start(proc):
            if proc.name == "pe-1":
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(proc)
            started.append(proc)

        monkeypatch.setattr(PROCESS_CONTEXT.Process, "start", start)
        with pytest.raises(BlockingIOError, match="temporarily unavailable"):
            run_spmd_processes(3, _graph_sum, graph=grid_2d(8, 8), timeout=60)
        assert [proc.name for proc in started] == ["pe-0"]
        assert not started[0].is_alive()

    def test_an_unpicklable_program_leaves_no_segment(self, no_shm_leak):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_spmd_processes(2, lambda comm, graph: 0, graph=grid_2d(8, 8))


# ---------------------------------------------------------------------------
# failure surface
# ---------------------------------------------------------------------------

class TestProcessFailures:
    def test_sanitizer_fires_across_processes(self):
        with pytest.raises(CollectiveMismatchError) as exc:
            run_spmd_processes(4, _order_divergence)
        assert exc.value.divergent_ranks == (0,)
        msg = str(exc.value)
        assert "barrier" in msg and "allgather" in msg

    def test_watchdog_names_stuck_ranks(self, no_child_left):
        # The budget must cover starting the fork server (~0.3 s on a
        # 2-vCPU host, on an interpreter's first process call) with
        # margin: the deadline starts before the workers do.  Rank 0 returns
        # immediately, so only rank 1 can be stuck once both are up.
        with pytest.raises(SpmdDeadlockError) as exc:
            run_spmd_processes(2, _early_return, timeout=12)
        assert 1 in exc.value.stuck_ranks
        assert "rank 1" in str(exc.value)

    def test_error_carries_rank_note(self, no_child_left):
        with pytest.raises(ValueError, match="rank 2 exploded") as exc:
            run_spmd_processes(4, _raise_on_rank_2)
        assert exc.value.__notes__ == ["raised on SPMD rank 2 (process backend)"]

    def test_an_unguarded_script_is_named_as_the_cause(self, tmp_path, no_shm_leak):
        """Every rank imports the caller's ``__main__`` script; one that
        partitions at import makes each rank try to start ranks of its
        own, and they all die before their first collective."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro import partition_graph\n"
            "from repro.generators.mesh import grid_2d\n"
            "partition_graph(grid_2d(8, 8), 2, num_pes=2, backend='process')\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.returncode == 1
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: SPMD worker process(es) died")
        assert "rank(s) [0, 1] died before their first collective" in last
        assert 'if __name__ == "__main__":' in last

    def test_a_dead_rank_is_named_while_its_peer_is_blocked_sending(
            self, no_shm_leak, no_child_left):
        """Rank 1's 2 MiB send to the dead hub fails with a broken pipe,
        which is the echo of a crash: the launcher names the dead rank as
        soon as its pipe reads EOF, not when the watchdog fires."""
        start = time.monotonic()
        with pytest.raises(RuntimeError) as exc:
            run_spmd_processes(2, _exit_while_peer_sends, graph=grid_2d(8, 8), timeout=60)
        assert time.monotonic() - start < 15
        msg = str(exc.value)
        assert "rank 0 (exit code 23)" in msg and "1/2 ranks never finished" in msg
        assert "__main__" not in msg

    def test_a_script_read_from_stdin_is_named_as_the_cause(self, tmp_path, no_shm_leak):
        """A rank re-imports the caller's ``__main__``, which a script
        piped on stdin does not have as a file: the call refuses before
        it creates a rank or a segment."""
        done = subprocess.run(
            [sys.executable, "-"], capture_output=True, text=True, timeout=120,
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            input="from repro.dist import run_spmd_processes\n"
                  "from repro.generators.mesh import grid_2d\n"
                  "def rank(comm, graph):\n"
                  "    return comm.rank\n"
                  "if __name__ == '__main__':\n"
                  "    run_spmd_processes(2, rank, graph=grid_2d(8, 8))\n",
        )
        assert done.returncode == 1
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: __main__ was read from stdin")
        assert "FileNotFoundError" not in done.stderr

    def test_a_rank_that_dies_in_its_program_is_not_blamed_on_the_script(self):
        with pytest.raises(RuntimeError) as exc:
            run_spmd_processes(2, _exit_after_barrier, timeout=60)
        msg = str(exc.value)
        assert "rank 1 (exit code 1)" in msg and "__main__" not in msg


# ---------------------------------------------------------------------------
# the fork server the ranks are forked from
# ---------------------------------------------------------------------------

def _server_pid() -> int:
    """The fork server's pid, as the parent pid of its ranks."""
    return run_spmd_processes(2, _parent_pid).value


class TestForkServer:
    def test_two_calls_fork_from_one_server(self):
        first = run_spmd_processes(2, _parent_pid)
        second = run_spmd_processes(2, _parent_pid)
        assert len(set(first.per_rank + second.per_rank)) == 1
        assert first.value != os.getpid()

    def test_the_server_preloads_after_a_sys_path_edit(self, tmp_path):
        """A script whose only route to ``repro`` is ``sys.path.insert``
        still gets ranks that find the partitioner imported by the server,
        and the ranks and the script stay in the script's directory."""
        src = Path(repro.__file__).resolve().parents[1]
        script = tmp_path / "edited_path.py"
        script.write_text(
            "import os, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "def probe(comm):\n"
            "    return 'repro.dist.dist_partitioner' in sys.modules, os.getcwd()\n"
            "if __name__ == '__main__':\n"
            "    from repro.dist import run_spmd_processes\n"
            "    run_spmd_processes(2, probe)\n"
            "    print(run_spmd_processes(2, probe).per_rank + [os.getcwd()])\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert done.returncode == 0, done.stderr
        here = os.path.realpath(tmp_path)
        assert ast.literal_eval(done.stdout) == [(True, here), (True, here), here]

    def test_a_rank_imports_nothing_while_it_partitions(self):
        """The server preloads what a rank's partition loads lazily (the
        numpy modules of ``default_rng`` and ``np.unique`` included), so
        a warm rank spends no call on an import."""
        result = run_spmd_processes(2, _imports_of_a_partition, graph=rmat(10, seed=1))
        assert result.per_rank == [[], []]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the thread count from /proc")
    def test_the_server_is_single_threaded(self):
        # fork copies only the calling thread: a second thread of the
        # server could hold a lock its ranks then never see released
        status = Path(f"/proc/{_server_pid()}/status").read_text()
        assert re.search(r"^Threads:\s+(\d+)$", status, re.M).group(1) == "1"

    def test_a_killed_server_is_started_again(self, no_shm_leak, no_child_left):
        graph = rmat(10, seed=1)

        def run():
            return partition_graph(graph, 4, preset="fast", seed=0, num_pes=2,
                                   backend="process").partition

        before = run()
        server = _server_pid()
        os.kill(server, signal.SIGKILL)
        # wait until it is dead, but leave it to multiprocessing to reap
        os.waitid(os.P_PID, server, os.WEXITED | os.WNOWAIT)
        assert np.array_equal(run(), before)
        assert _server_pid() not in (server, os.getpid())


class TestThreadRuntimeFailures:
    """run_spmd's failure-path fixes (same program fixtures, threads)."""

    def test_error_carries_rank_note(self):
        with pytest.raises(ValueError, match="rank 2 exploded") as exc:
            run_spmd(4, _raise_on_rank_2)
        assert exc.value.__notes__ == ["raised on SPMD rank 2"]

    def test_echo_broken_barriers_are_swallowed(self):
        # Ranks 0/1/3 unwind only because rank 2 failed and set the abort
        # event; the original failure must win, not the echo.
        with pytest.raises(ValueError, match="rank 2 exploded"):
            run_spmd(4, _raise_on_rank_2)


# ---------------------------------------------------------------------------
# Watchdog budget: ``timeout=`` is the one way to set it
# ---------------------------------------------------------------------------

class TestResolveTimeout:
    def test_explicit_wins_over_env(self, monkeypatch):
        # ... because the environment is not a way in at all
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "5")
        assert _resolve_timeout(12.0) == 12.0
        assert _resolve_timeout(None) == DEFAULT_SPMD_TIMEOUT

    def test_zero_disables(self):
        assert _resolve_timeout(0) is None
        assert _resolve_timeout(-3.0) is None
