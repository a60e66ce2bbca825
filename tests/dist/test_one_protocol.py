"""One collective protocol for both kinds of rank.

Thread ranks (``run_spmd``) and process ranks (``run_spmd_processes``)
run the same :class:`SimComm` over the same rank-0 hub; these tests pin
what that sharing must not cost: a private result list per rank, no rank
thread left behind on any failure path, and one stuck-rank report.

Programs live at module level so process ranks can unpickle them.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.dist import (
    CollectiveMismatchError,
    SpmdDeadlockError,
    World,
    run_spmd,
    run_spmd_processes,
)
from repro.dist.runtime import PROCESS_CONTEXT, _deadlock_error

from .test_runtime_process import _early_return, _order_divergence


def _comm_class(comm):
    comm.barrier()
    return type(comm).__qualname__


def _clear_own_allgather(comm):
    values = comm.allgather(comm.rank)
    comm.barrier()
    if comm.rank == 0:
        values.clear()
    comm.barrier()
    return len(values)


def _fails_in_third_collective(comm):
    comm.barrier()
    comm.allgather(comm.rank)

    def op(a, b):
        if comm.rank == 1:
            raise ValueError("rank 1 exploded in its third collective")
        return a + b

    comm.allreduce(1, op=op)
    return comm.barrier()  # the surviving ranks wait here for the abort


def _hub_stress(comm, rounds):
    for i in range(rounds):
        assert comm.allreduce(comm.rank + i) == sum(r + i for r in range(comm.size))
        got = comm.alltoall([(comm.rank, dest, i) for dest in range(comm.size)])
        assert got == [(src, comm.rank, i) for src in range(comm.size)]
    return comm.stats.collectives


@pytest.mark.parametrize("launcher", [run_spmd, run_spmd_processes])
def test_both_rank_kinds_run_the_same_class(launcher):
    assert launcher(2, _comm_class).per_rank == ["SimComm", "SimComm"]


def test_allgather_result_is_private_to_the_thread_rank():
    # Rank 0 is the hub: the list it answers with must not be the one it
    # (or any other thread) goes on to mutate.
    assert run_spmd(4, _clear_own_allgather).per_rank == [0, 4, 4, 4]


class TestNothingIsLeftRunning:
    @pytest.fixture(autouse=True)
    def _threads_return_to_baseline(self):
        before = threading.active_count()
        yield
        deadline = time.monotonic() + 1.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("pe-")]

    def test_after_a_rank_raises_inside_its_third_collective(self):
        with pytest.raises(ValueError, match="third collective") as exc:
            run_spmd(4, _fails_in_third_collective)
        assert exc.value.__notes__ == ["raised on SPMD rank 1"]

    def test_after_a_rank_fails_to_build_its_communicator(self, monkeypatch):
        build = World.comm

        def comm(world, rank):
            if rank == 1:
                raise ValueError("rank 1 could not build its communicator")
            return build(world, rank)

        monkeypatch.setattr(World, "comm", comm)
        with pytest.raises(ValueError, match="could not build") as exc:
            run_spmd(3, _comm_class)
        assert exc.value.__notes__ == ["raised on SPMD rank 1"]

    def test_after_a_seed_no_rank_generator_takes(self):
        with pytest.raises(ValueError, match="non-negative") as exc:
            run_spmd(2, _comm_class, seed=-1)
        assert exc.value.__notes__ == ["raised on SPMD rank 0"]

    def test_after_a_sanitizer_mismatch(self):
        with pytest.raises(CollectiveMismatchError) as exc:
            run_spmd(4, _order_divergence)
        assert exc.value.divergent_ranks == (0,)

    def test_after_a_watchdog_timeout(self):
        with pytest.raises(SpmdDeadlockError) as exc:
            run_spmd(3, _early_return, timeout=0.5)
        assert exc.value.stuck_ranks == (1, 2)


def test_stuck_rank_text_is_the_same_for_both_launchers():
    with pytest.raises(SpmdDeadlockError) as exc:
        run_spmd(3, _early_return, timeout=0.5)
    report = str(exc.value)
    assert report.splitlines()[1:] == [
        "  rank 1: last entered collective #1 (allgather)",
        "  rank 2: last entered collective #1 (allgather)",
    ]
    # The process launcher reports through the same function from the
    # process-context flavour of the same progress table.
    world = World(3, ctx=PROCESS_CONTEXT)
    for rank in (1, 2):
        world.stamp(rank, "allgather", 1)
    assert str(_deadlock_error(world, (1, 2), 0.5)) == report


def test_hub_stress_more_thread_ranks_than_cores():
    # A lost or misrouted message breaks the per-round invariants
    # asserted inside the program (or hangs into the 60 s budget).
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        out = run_spmd(8, _hub_stress, 200, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert out.per_rank == [400] * 8


def test_hub_stress_more_process_ranks_than_cores():
    # The same invariants over one pipe per rank, with four ranks on
    # hosts of two cores.
    out = run_spmd_processes(4, _hub_stress, 200, timeout=60.0)
    assert out.per_rank == [400] * 4
