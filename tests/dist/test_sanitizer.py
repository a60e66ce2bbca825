"""Tests for the collective-order check and the deadlock watchdog.

Two violation programs, each caught with rank attribution in a default
run (the check has no switch):

* collective-order divergence  -> ``CollectiveMismatchError``
* partial-rank collective      -> ``CollectiveMismatchError``

plus the ``run_spmd`` join-timeout watchdog (``SpmdDeadlockError``) for
the rank that never contributes, which the hub cannot name.
"""

from __future__ import annotations

import pytest

from repro.dist import (
    CollectiveMismatchError,
    SimComm,
    SpmdDeadlockError,
    World,
    run_spmd,
)


# ---------------------------------------------------------------------------
# violation programs (module-level so tracebacks carry useful names)
# ---------------------------------------------------------------------------

def _order_divergence(comm):
    # Rank 0 runs barrier-then-allgather; everyone else the reverse.
    if comm.rank == 0:  # deliberately divergent
        comm.barrier()
        comm.allgather(comm.rank)
    else:
        comm.allgather(comm.rank)
        comm.barrier()


def _partial_collective(comm):
    if comm.rank == 0:  # deliberately divergent
        comm.barrier()
    comm.allgather(comm.rank)


def _early_return(comm):
    if comm.rank == 0:  # deliberate deadlock
        return None
    comm.allgather(comm.rank)
    return comm.barrier()


class TestCollectiveOrderSanitizer:
    def test_order_divergence_is_caught_with_rank_attribution(self):
        with pytest.raises(CollectiveMismatchError) as exc:
            run_spmd(4, _order_divergence)
        assert exc.value.divergent_ranks == (0,)
        msg = str(exc.value)
        assert "rank 0" in msg
        assert "barrier" in msg and "allgather" in msg

    def test_partial_rank_collective_is_caught(self):
        with pytest.raises(CollectiveMismatchError) as exc:
            run_spmd(4, _partial_collective)
        assert exc.value.divergent_ranks == (0,)

    def test_callsites_appear_in_the_report(self):
        with pytest.raises(CollectiveMismatchError) as exc:
            run_spmd(4, _order_divergence)
        assert "test_sanitizer.py" in str(exc.value)


class TestSharedStateGuard:
    def test_collectives_still_work_through_the_guard(self):
        out = run_spmd(3, lambda comm: comm.allgather(comm.rank))
        assert out.per_rank == [[0, 1, 2]] * 3


class TestTransparency:
    def test_full_pipeline_runs_under_sanitizer(self):
        # ``sanitize`` is an inert PartitionConfig field the frozen
        # benchmarks/e2e/child.py still reads; it must stay constructible.
        from repro.core import fast_config
        from repro.dist import parallel_partition
        from repro.generators import planted_partition
        from repro.graph import check_partition

        graph, _truth = planted_partition(2, 60, p_in=0.2, p_out=0.01, seed=7)
        config = fast_config(k=2, social=True, sanitize=True)
        result = parallel_partition(graph, config, num_pes=2, seed=1)
        check_partition(graph, result.partition, 2, epsilon=0.03)


class TestDeadlockWatchdog:
    def test_early_return_raises_deadlock_with_stuck_ranks(self):
        with pytest.raises(SpmdDeadlockError) as exc:
            run_spmd(3, _early_return, timeout=1.0)
        assert exc.value.stuck_ranks == (1, 2)
        msg = str(exc.value)
        assert "rank" in msg
        assert "allgather" in msg  # last collective each stuck rank entered

    def test_config_timeout(self, monkeypatch):
        # ``config.spmd_timeout`` is how a partition call sets the budget.
        from repro.core import fast_config
        from repro.dist import dist_partitioner
        from repro.generators import planted_partition

        seen = []
        real = dist_partitioner.run_spmd
        monkeypatch.setattr(
            dist_partitioner, "run_spmd",
            lambda *args, **kw: seen.append(kw["timeout"]) or real(*args, **kw),
        )
        graph, _truth = planted_partition(2, 40, p_in=0.2, p_out=0.01, seed=7)
        dist_partitioner.parallel_partition(
            graph, fast_config(k=2, spmd_timeout=7.5), num_pes=2
        )
        assert seen == [7.5]

    def test_timeout_zero_disables_watchdog(self):
        # A correct program with the watchdog disabled completes normally.
        out = run_spmd(2, lambda comm: comm.allreduce(1), timeout=0)
        assert out.per_rank == [2, 2]

    def test_program_errors_win_over_deadlock_report(self):
        def _rank0_raises(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(ValueError, match="boom"):
            run_spmd(2, _rank0_raises, timeout=1.0)


class TestSingleRank:
    def test_sanitized_single_rank_collectives(self):
        comm = SimComm(World(1), 0)
        assert comm.allgather(5) == [5]
        assert comm.allreduce(5) == 5
        comm.barrier()
