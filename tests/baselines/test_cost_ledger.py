"""Tests for the baseline cost ledger and the exit a baseline returns through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CostLedger
from repro.graph import path_graph
from repro.metrics import finish_partition
from repro.perf import MACHINE_B, SERIAL


class TestCostLedger:
    def test_parallel_work_splits_across_pes(self):
        one = CostLedger(MACHINE_B, 1)
        eight = CostLedger(MACHINE_B, 8)
        one.parallel_work(8000, ghost_fraction=0.0)
        eight.parallel_work(8000, ghost_fraction=0.0)
        # 8 PEs do 1/8 of the compute each; only message cost differs
        assert eight.seconds < one.seconds

    def test_serial_work_is_not_split(self):
        a = CostLedger(MACHINE_B, 1)
        b = CostLedger(MACHINE_B, 16)
        a.serial_work(1000)
        b.serial_work(1000)
        assert a.seconds == pytest.approx(b.seconds)

    def test_collectives_cost_grows_with_pes(self):
        small = CostLedger(MACHINE_B, 2)
        large = CostLedger(MACHINE_B, 1024)
        small.collectives(5)
        large.collectives(5)
        assert large.seconds > small.seconds

    def test_single_pe_has_no_message_cost(self):
        ledger = CostLedger(MACHINE_B, 1)
        ledger.parallel_work(1000, ghost_fraction=0.5)
        compute_only = MACHINE_B.compute_time(1000)
        # ghost traffic still modelled as local copies; compute dominates
        assert ledger.seconds >= compute_only

    def test_serial_machine_free(self):
        ledger = CostLedger(SERIAL, 4)
        ledger.parallel_work(1e9)
        ledger.collectives(100)
        assert ledger.seconds == 0.0


class TestFinishPartition:
    def test_baseline_exit_computes_quality(self):
        g = path_graph(6)
        part = np.array([0, 0, 0, 1, 1, 1])
        res = finish_partition(g, part, 2, 0.03, num_pes=4, sim_time=1.5)
        assert res.cut == 1
        assert res.imbalance == 0.0
        assert res.sim_time == 1.5
        assert res.num_pes == 4
        assert res.config is None
        assert res.lmax == 3 and res.feasible
