"""Tests for the trace analytics layer (``repro.obsv.analyze``).

The contracts under test:

* the critical path telescopes — its segment durations sum exactly to
  the run's end-to-end wall time, every rank appears;
* the comm matrix is an *identity* over :class:`CommStats` — each row's
  off-diagonal sum equals that rank's ``bytes_sent`` aggregate;
* per-rank memory samples are nonzero and survive export round trips;
* the run summary validates against its own schema and ``--compare``
  exits nonzero on an injected regression;
* histograms answer approximate p50/p99 from bounded log buckets;
* the trace header is recorded, exported, and surfaced with the
  single-core wall-clock caveat.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.dist.runtime import run_spmd
from repro.obsv import (
    TRACER,
    build_run_summary,
    comm_matrix,
    compare_run_summaries,
    critical_path,
    header_summary,
    rank_memory,
    read_jsonl,
    render_analysis,
    render_report,
    straggler_blame,
    validate_run_summary,
    write_jsonl,
)
from repro.obsv.metrics import Histogram

P = 4
ROUNDS = 4


def _analytics_program(comm, rounds=ROUNDS):
    """Alltoall + allreduce rounds with rank-skewed simulated work."""
    checksum = 0
    for i in range(rounds):
        comm.work(3.0 * (comm.rank + 1))
        payloads = [
            np.arange((comm.rank + dest + i) % 3 + 1, dtype=np.int64)
            for dest in range(comm.size)
        ]
        rows = comm.alltoall(payloads, tag="lp.labels")
        checksum += sum(int(row.sum()) for row in rows)
        checksum += comm.allreduce(1)
    comm.barrier()
    return checksum


@pytest.fixture()
def traced_run():
    """(records, SpmdResult) of one traced p=4 thread-backend run."""
    TRACER.enable()
    result = run_spmd(P, _analytics_program, seed=0)
    TRACER.disable()
    records = [dict(TRACER.header)] + TRACER.snapshot()
    records.append({"type": "metrics", "metrics": TRACER.metrics.snapshot()})
    return records, result


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def test_critical_path_sums_to_wall_time(traced_run):
    records, _ = traced_run
    path = critical_path(records)
    assert path["ranks"] == list(range(P))
    assert path["collectives"] == ROUNDS * 2 + 1  # alltoall+allreduce, barrier
    assert not path["truncated"]
    assert path["total"] > 0
    segment_sum = sum(seg["dur"] for seg in path["segments"])
    assert segment_sum == pytest.approx(path["total"], rel=1e-9, abs=1e-9)
    # segments alternate and are contiguous: each starts where the
    # previous one ended (the telescoping property)
    for prev, cur in zip(path["segments"], path["segments"][1:]):
        assert cur["start"] == prev["end"]
    kinds = {seg["kind"] for seg in path["segments"]}
    assert kinds == {"compute", "comm"}
    assert path["compute_s"] + path["comm_s"] == pytest.approx(path["total"])


def test_critical_path_empty_without_collectives():
    path = critical_path([])
    assert path["segments"] == []
    assert path["total"] == 0.0


def test_straggler_blame_accounts_all_waits(traced_run):
    records, _ = traced_run
    blame = straggler_blame(records)
    assert blame["total_wait_s"] >= 0.0
    assert sum(blame["per_rank"].values()) == pytest.approx(blame["total_wait_s"])
    # blame keys are strings (JSON-stable)
    assert all(isinstance(k, str) for k in blame["per_rank"])


# ---------------------------------------------------------------------------
# Comm matrix
# ---------------------------------------------------------------------------

def test_comm_matrix_matches_commstats(traced_run):
    """The identity gate: row sums (minus diagonal) == CommStats.bytes_sent."""
    records, result = traced_run
    matrix = comm_matrix(records)
    assert matrix["size"] == P
    for rank in range(P):
        off_diagonal = sum(
            matrix["total"][rank][dest] for dest in range(P) if dest != rank
        )
        assert off_diagonal == result.stats[rank].bytes_sent
        assert matrix["sent_bytes_per_rank"][rank] == result.stats[rank].bytes_sent


def test_comm_matrix_tagged_ops_visible(traced_run):
    records, _ = traced_run
    matrix = comm_matrix(records)
    assert "alltoall[lp.labels]" in matrix["per_op"]
    tagged = matrix["per_op"]["alltoall[lp.labels]"]
    assert sum(map(sum, tagged)) == sum(map(sum, matrix["total"]))


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_rank_memory_nonzero_for_all_ranks(traced_run):
    records, _ = traced_run
    memory = rank_memory(records)
    assert sorted(memory["per_rank"]) == [str(r) for r in range(P)]
    assert memory["peak_rss_bytes"] > 0
    for row in memory["per_rank"].values():
        assert row["peak_rss_bytes"] > 0
        assert row["shared"] is True  # thread backend: one shared process


# ---------------------------------------------------------------------------
# Run summary + compare
# ---------------------------------------------------------------------------

def test_run_summary_validates_and_serialises(traced_run):
    records, _ = traced_run
    summary = build_run_summary(records)
    assert validate_run_summary(summary) == []
    round_tripped = json.loads(json.dumps(summary))
    assert validate_run_summary(round_tripped) == []
    assert summary["header"]["backend"] == "spmd"
    assert summary["header"]["p"] == P
    assert summary["wall_time_s"] > 0
    assert summary["comm"]["matrix"]["size"] == P


def test_validate_rejects_broken_documents():
    assert validate_run_summary([]) != []
    assert validate_run_summary({"schema": "nope"}) != []
    good = build_run_summary([])
    assert validate_run_summary(good) == []
    broken = json.loads(json.dumps(good))
    del broken["memory"]
    assert any("memory" in e for e in validate_run_summary(broken))


@pytest.mark.parametrize("header, ok", [
    ({"lp_kernel": "native"}, True),
    ({"lp_kernel": "numpy", "lp_kernel_fallback": "no C compiler (cc) on PATH"}, True),
    ({}, True),  # a run that never reached the LP
    ({"lp_kernel": "numpy"}, False),  # a fallback must say why
    ({"lp_kernel": "native", "lp_kernel_fallback": "x"}, False),
    ({"lp_kernel": "cuda"}, False),
])
def test_validate_checks_the_lp_kernel_header_fields(header, ok):
    doc = build_run_summary([])
    doc["header"] = header
    errors = validate_run_summary(doc)
    assert (errors == []) == ok, errors
    assert all("lp_kernel" in e for e in errors)


def test_compare_flags_injected_regression(traced_run):
    records, _ = traced_run
    current = build_run_summary(records)
    current["quality"]["cut"] = 110
    baseline = json.loads(json.dumps(current))
    baseline["quality"]["cut"] = 100
    problems = compare_run_summaries(current, baseline)
    assert any("quality.cut" in p for p in problems)
    # improvements pass silently
    assert compare_run_summaries(baseline, current) == []
    # equal runs are clean
    assert compare_run_summaries(current, current) == []


def test_compare_flags_memory_regression(traced_run):
    records, _ = traced_run
    current = build_run_summary(records)
    baseline = json.loads(json.dumps(current))
    baseline["memory"]["peak_rss_bytes"] = max(
        1, current["memory"]["peak_rss_bytes"] // 4
    )
    problems = compare_run_summaries(current, baseline)
    assert any("peak_rss_bytes" in p for p in problems)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze_writes_run_json(traced_run, tmp_path, capsys):
    records, _ = traced_run
    events = tmp_path / "t.events.jsonl"
    write_jsonl(events, records)
    assert main(["analyze", str(events)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "comm matrix" in out
    run_json = tmp_path / "t.run.json"
    assert run_json.exists()
    doc = json.loads(run_json.read_text())
    assert validate_run_summary(doc) == []


def test_cli_analyze_compare_exits_nonzero_on_regression(traced_run, tmp_path,
                                                         capsys):
    records, _ = traced_run
    events = tmp_path / "t.events.jsonl"
    write_jsonl(events, records)
    assert main(["analyze", str(events)]) == 0
    run_json = tmp_path / "t.run.json"
    baseline = json.loads(run_json.read_text())
    # inject: the baseline was much faster than the current run
    baseline["wall_time_s"] = baseline["wall_time_s"] / 1000.0
    doctored = tmp_path / "baseline.run.json"
    doctored.write_text(json.dumps(baseline))
    assert main(["analyze", str(events), "--compare", str(doctored)]) == 1
    assert "REGRESSIONS" in capsys.readouterr().out
    # against the real baseline the same trace is clean
    assert main(["analyze", str(events), "--compare", str(run_json)]) == 0


# ---------------------------------------------------------------------------
# Histogram quantiles (satellite)
# ---------------------------------------------------------------------------

def test_histogram_quantiles_from_log_buckets():
    hist = Histogram(threading.Lock())
    assert hist.quantile(0.5) is None
    for value in range(1, 1001):
        hist.observe(float(value))
    p50 = hist.quantile(0.5)
    p99 = hist.quantile(0.99)
    # log buckets: within one octave of the exact answer
    assert 250 <= p50 <= 1000
    assert 500 <= p99 <= 1000
    assert p50 <= p99


def test_histogram_single_observation_is_exact():
    hist = Histogram(threading.Lock())
    hist.observe(42.0)
    assert hist.quantile(0.5) == 42.0
    assert hist.quantile(0.99) == 42.0


def test_histogram_snapshot_reports_quantiles():
    TRACER.metrics.reset()
    hist = TRACER.metrics.histogram("lat")
    for value in (1.0, 2.0, 4.0, 1000.0):
        hist.observe(value)
    snap = TRACER.metrics.snapshot()["histograms"]["lat"]
    assert snap["count"] == 4
    assert snap["p50"] is not None and snap["p99"] is not None
    assert snap["p50"] <= snap["p99"] <= snap["max"]
    assert snap["min"] <= snap["p50"]


def test_histogram_constant_memory():
    hist = Histogram(threading.Lock())
    assert not hasattr(hist, "__dict__")  # __slots__ stayed
    before = len(hist._buckets)
    for value in range(10000):
        hist.observe(float(value))
    assert len(hist._buckets) == before


# ---------------------------------------------------------------------------
# Trace header (satellite)
# ---------------------------------------------------------------------------

def test_header_recorded_and_annotated(traced_run):
    records, _ = traced_run
    header = records[0]
    assert header["type"] == "header"
    assert header["cpu_cores"] >= 1
    assert header["python"]
    assert header["backend"] == "spmd"
    assert header["p"] == P


def test_header_survives_jsonl_round_trip(traced_run, tmp_path):
    _, _ = traced_run
    path = tmp_path / "t.events.jsonl"
    write_jsonl(path, TRACER)  # Tracer source: header written from .header
    loaded = read_jsonl(path)
    headers = [r for r in loaded if r.get("type") == "header"]
    assert len(headers) == 1
    assert headers[0]["backend"] == "spmd"


def test_report_and_analyze_surface_header(traced_run):
    records, _ = traced_run
    assert "trace header" in render_report(records)
    assert "trace header" in render_analysis(records)


def test_single_core_process_backend_warns():
    header = {
        "type": "header", "cpu_cores": 1, "cpu_affinity": 1,
        "python": "3.11", "numpy": None, "backend": "process", "p": 4,
    }
    summary = header_summary([header])
    assert "WARNING" in summary
    assert "single-core" in summary
    # multi-core host: no warning
    header["cpu_affinity"] = 8
    header["cpu_cores"] = 8
    assert "WARNING" not in header_summary([header])
    # thread backend wall clocks are never gated on cores
    header.update(cpu_cores=1, cpu_affinity=1, backend="spmd")
    assert "WARNING" not in header_summary([header])
