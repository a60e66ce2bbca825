"""Tests for the simulated MPI communicator and SPMD runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import payload_bytes, run_spmd
from repro.perf import MACHINE_B


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_allgather(self, size):
        result = run_spmd(size, lambda comm: comm.allgather(comm.rank * 10))
        for rank_view in result.per_rank:
            assert rank_view == [r * 10 for r in range(size)]

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_allreduce_sum(self, size):
        result = run_spmd(size, lambda comm: comm.allreduce(comm.rank + 1))
        assert all(v == size * (size + 1) // 2 for v in result.per_rank)

    def test_allreduce_arrays(self):
        def program(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=np.int64))

        result = run_spmd(4, program)
        assert result.value.tolist() == [6, 6, 6]

    def test_allreduce_max_min(self):
        result = run_spmd(5, lambda comm: (comm.allreduce_max(comm.rank),
                                           comm.allreduce(comm.rank, op=min)))
        assert result.value == (4, 0)

    def test_bcast(self):
        def program(comm):
            value = {"payload": 42} if comm.rank == 2 else None
            return comm.bcast(value, root=2)

        result = run_spmd(4, program)
        assert all(v == {"payload": 42} for v in result.per_rank)

    def test_exscan(self):
        result = run_spmd(5, lambda comm: comm.exscan(comm.rank + 1))
        # exclusive prefix sums of [1,2,3,4,5]
        assert result.per_rank == [0, 1, 3, 6, 10]

    def test_alltoall(self):
        def program(comm):
            outgoing = [comm.rank * 100 + dest for dest in range(comm.size)]
            return comm.alltoall(outgoing)

        result = run_spmd(3, program)
        # rank r receives src*100 + r from each src
        for r, received in enumerate(result.per_rank):
            assert received == [src * 100 + r for src in range(3)]

    def test_alltoall_wrong_length(self):
        with pytest.raises(ValueError, match="one payload per rank"):
            run_spmd(2, lambda comm: comm.alltoall([1]))

    def test_barrier_runs(self):
        run_spmd(4, lambda comm: comm.barrier())


class TestBufferedSends:
    def test_exchange_delivers_to_destination(self):
        def program(comm):
            comm.send_buffered((comm.rank + 1) % comm.size, f"from-{comm.rank}")
            return comm.exchange()

        result = run_spmd(4, program)
        assert result.per_rank[1] == [(0, "from-0")]
        assert result.per_rank[0] == [(3, "from-3")]

    def test_exchange_preserves_order_per_source(self):
        def program(comm):
            if comm.rank == 0:
                comm.send_buffered(1, "a")
                comm.send_buffered(1, "b")
            return comm.exchange()

        result = run_spmd(2, program)
        assert result.per_rank[1] == [(0, "a"), (0, "b")]

    def test_invalid_destination(self):
        with pytest.raises(ValueError, match="destination"):
            run_spmd(2, lambda comm: comm.send_buffered(5, "x"))

    def test_outbox_cleared_after_exchange(self):
        def program(comm):
            comm.send_buffered(0, "once")
            first = comm.exchange()
            second = comm.exchange()
            return first, second

        result = run_spmd(2, program)
        first, second = result.per_rank[0]
        assert len(first) == 2  # one from each rank
        assert second == []


class TestRuntime:
    def test_exceptions_propagate(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("boom on rank 1")
            comm.barrier()  # would deadlock without barrier abort

        with pytest.raises(RuntimeError, match="boom on rank 1"):
            run_spmd(3, program)

    def test_deterministic_rank_rngs(self):
        def program(comm):
            return float(comm.rng.random())

        a = run_spmd(3, program, seed=42)
        b = run_spmd(3, program, seed=42)
        c = run_spmd(3, program, seed=43)
        assert a.per_rank == b.per_rank
        assert a.per_rank != c.per_rank
        assert len(set(a.per_rank)) == 3  # ranks draw differently

    def test_single_rank_fast_path(self):
        result = run_spmd(1, lambda comm: comm.allreduce(5))
        assert result.value == 5


class TestSimulatedTime:
    def test_work_advances_clock(self):
        def program(comm):
            comm.work(1000 if comm.rank == 0 else 10)
            comm.barrier()
            return comm.sim_time

        result = run_spmd(2, program, machine=MACHINE_B)
        # barrier synchronises both clocks to the slow rank's time + latency
        assert result.per_rank[0] == result.per_rank[1]
        assert result.sim_time >= 1000 * MACHINE_B.seconds_per_work_unit

    def test_collective_adds_latency(self):
        result = run_spmd(4, lambda comm: comm.barrier() or comm.sim_time,
                          machine=MACHINE_B)
        assert result.sim_time > 0.0

    def test_stats_counters(self):
        def program(comm):
            comm.work(5)
            comm.alltoall([np.zeros(4)] * comm.size)

        result = run_spmd(2, program, machine=MACHINE_B)
        for stats in result.stats:
            assert stats.work_units == 5
            assert stats.collectives >= 1
            assert stats.bytes_sent == 32  # one 4-double array to the peer

    def test_serial_machine_has_zero_cost(self):
        result = run_spmd(2, lambda comm: comm.barrier())
        assert result.sim_time == 0.0


class TestPayloadBytes:
    def test_numpy(self):
        assert payload_bytes(np.zeros(10, dtype=np.int64)) == 80

    def test_scalars_and_none(self):
        assert payload_bytes(5) == 8
        assert payload_bytes(None) == 0

    def test_containers(self):
        assert payload_bytes([np.zeros(2), 1]) == 24
        assert payload_bytes({"a": 1}) == 9

    def test_strings_count_utf8_bytes(self):
        assert payload_bytes("") == 0
        assert payload_bytes("abc") == 3
        assert payload_bytes("héllo") == 6  # é is two bytes in UTF-8
        assert payload_bytes("€") == 3

    def test_bytes_and_bytearray(self):
        assert payload_bytes(b"abc") == 3
        assert payload_bytes(bytearray(5)) == 5

    def test_bools_are_one_byte_not_eight(self):
        assert payload_bytes(True) == 1
        assert payload_bytes(False) == 1
        assert payload_bytes(np.True_) == 1

    def test_bool_none_consistency_in_containers(self):
        assert payload_bytes([True, None, False]) == 2
        assert payload_bytes({"k": None}) == 1
