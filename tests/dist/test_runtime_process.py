"""Tests for the process backend runtime (``run_spmd_processes``).

The contract under test: the process backend is *bit-identical* to the
thread backend for the same program — same per-rank values, same
simulated clocks, same :class:`CommStats` — and reproduces the full
failure surface (collective-order check, deadlock watchdog,
rank-attributed errors, crashed-worker detection) over real OS processes.  Shared-memory CSR
segments must be unlinked on every exit path.

All programs live at module level: spawn workers re-import this module,
so closures or ``__main__``-local functions cannot cross the process
boundary (that is part of the documented contract).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.dist import (
    CollectiveMismatchError,
    SpmdDeadlockError,
    run_spmd,
    run_spmd_processes,
)
from repro.dist.runtime import DEFAULT_SPMD_TIMEOUT, _resolve_timeout
from repro.generators.mesh import grid_2d
from repro.perf.machine import MACHINE_A, SERIAL

from ..conftest import kernel_cache_leftovers


# ---------------------------------------------------------------------------
# module-level programs (spawn workers must be able to re-import them)
# ---------------------------------------------------------------------------

def _collective_tour(comm, values):
    """One pass over the collective surface, charging simulated work."""
    comm.work(5.0 * (comm.rank + 1))
    gathered = comm.allgather(values[comm.rank])
    total = comm.allreduce(np.array([comm.rank + 1, 2], dtype=np.int64))
    peak = comm.allreduce_max(float(comm.rank))
    root = comm.bcast(values[0] if comm.rank == 0 else None, root=0)
    parts = comm.alltoall([np.full(2, comm.rank, dtype=np.int64)
                           for _ in range(comm.size)])
    comm.barrier()
    return (gathered, total.tolist(), peak, root,
            [p.tolist() for p in parts])


def _graph_sum(comm, graph):
    """Read the shared CSR and agree on a checksum."""
    local = int(graph.xadj[-1]) + int(graph.adjncy.sum()) + int(graph.vwgt.sum())
    return comm.allreduce(local)


def _graph_crash(comm, graph):
    if comm.rank == 1:  # deliberate crash
        os._exit(17)
    comm.barrier()
    return int(graph.vwgt.sum())


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


VALUES = [10, 20, 30, 40]


# ---------------------------------------------------------------------------
# thread/process parity
# ---------------------------------------------------------------------------

class TestThreadProcessParity:
    @pytest.mark.parametrize("size", [1, 4])
    def test_collectives_bit_identical(self, size):
        threads = run_spmd(size, _collective_tour, VALUES,
                           machine=MACHINE_A, seed=7)
        # sanitize= selects nothing; the frozen benchmarks/e2e/child.py
        # passes it, so the launcher has to keep accepting the name.
        procs = run_spmd_processes(size, _collective_tour, VALUES,
                                   machine=MACHINE_A, seed=7, sanitize=None)
        assert procs.per_rank == threads.per_rank
        assert np.array_equal(procs.sim_times, threads.sim_times)
        assert procs.sim_time == threads.sim_time
        assert procs.stats == threads.stats

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
        # ranks never build the LP kernel, so a killed one leaves no
        # half-written file in its cache
        assert kernel_cache_leftovers() == []

    def test_a_rank_that_fails_to_start(self, no_shm_leak, monkeypatch):
        """``start()`` raising on rank 1 (EAGAIN, an unguarded ``__main__``,
        an unpicklable spec) is the error the caller sees: no join of the
        ranks that never started, rank 0 stopped, the segments unlinked."""
        from multiprocessing.context import SpawnProcess

        started = []
        real_start = SpawnProcess.start

        def start(proc):
            if proc.name == "pe-1":
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(proc)
            started.append(proc)

        monkeypatch.setattr(SpawnProcess, "start", start)
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
        # The budget must cover spawn + import (~2 s here) with margin:
        # the deadline starts before the workers do.  Rank 0 returns
        # immediately, so only rank 1 can be stuck once both are up.
        with pytest.raises(SpmdDeadlockError) as exc:
            run_spmd_processes(2, _early_return, timeout=12)
        assert 1 in exc.value.stuck_ranks
        assert "rank 1" in str(exc.value)

    def test_error_carries_rank_note(self, no_child_left):
        with pytest.raises(ValueError, match="rank 2 exploded") as exc:
            run_spmd_processes(4, _raise_on_rank_2)
        assert exc.value.__notes__ == ["raised on SPMD rank 2 (process backend)"]


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
