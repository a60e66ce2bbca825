"""The kernel bench's gate: one bar, half the committed value per row.

``benchmarks/bench_kernel_throughput.py --check`` fails on the rows
``failing_rows(metrics, baseline)`` returns.  The script is loaded by
path, as ``tests/test_bench_bindings.py`` loads the frozen bench;
loading it measures nothing.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernel_throughput.py"

BASELINE = {"seq_lp_chunked_rmat": 70e6, "halo_exchange_mesh": 3.2e6,
            "par_lp_chunked_rmat15_p4": 44e6}


@pytest.fixture(scope="module")
def failing_rows():
    spec = importlib.util.spec_from_file_location("bench_kernel_throughput", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.failing_rows


def test_identical_metrics_pass(failing_rows):
    assert failing_rows(dict(BASELINE), BASELINE) == []


def test_a_row_below_half_its_baseline_fails_by_name(failing_rows):
    metrics = {**BASELINE, "halo_exchange_mesh": 0.49 * BASELINE["halo_exchange_mesh"]}
    assert failing_rows(metrics, BASELINE) == ["halo_exchange_mesh"]


def test_a_row_the_run_lacks_fails_by_name(failing_rows):
    metrics = {key: value for key, value in BASELINE.items()
               if key != "par_lp_chunked_rmat15_p4"}
    assert failing_rows(metrics, BASELINE) == ["par_lp_chunked_rmat15_p4"]
