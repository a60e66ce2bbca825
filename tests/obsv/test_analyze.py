"""Tests for the trace analytics layer (``repro.obsv.analyze``).

The contracts under test:

* the critical path telescopes — its segment durations sum exactly to
  the run's end-to-end wall time, every rank appears;
* the comm matrix is an *identity* over :class:`CommStats` — each row's
  off-diagonal sum equals that rank's ``bytes_sent`` aggregate;
* per-rank memory samples are nonzero and survive export round trips;
* the run summary validates against its own schema;
* the summary is derived from spans and events alone (a legacy trailing
  ``metrics`` line changes nothing), every analysis runs once per
  ``repro analyze``, and an over-weight partition is reported infeasible;
* the trace header is recorded, exported, and surfaced with the
  single-core wall-clock caveat.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.dist.runtime import run_spmd
from repro.obsv import (
    TRACER,
    build_run_summary,
    comm_matrix,
    critical_path,
    rank_memory,
    read_jsonl,
    render_analysis,
    straggler_blame,
    validate_run_summary,
    write_jsonl,
)

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
# Run summary
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
    ({}, True),  # a run that never reached the LP
    ({"lp_kernel": "native", "lp_kernel_fallback": "x"}, True),  # not read
    ({"lp_kernel": "numpy"}, False),  # one kernel: there is no fallback
    ({"lp_kernel": "numpy", "lp_kernel_fallback": "no C compiler (cc) on PATH"}, False),
    ({"lp_kernel": "cuda"}, False),
])
def test_validate_checks_the_lp_kernel_header_fields(header, ok):
    doc = build_run_summary([])
    doc["header"] = header
    errors = validate_run_summary(doc)
    assert (errors == []) == ok, errors
    assert all("lp_kernel" in e for e in errors)


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


def test_cli_analyze_runs_each_analysis_once(traced_run, tmp_path, monkeypatch,
                                            capsys):
    # The tables are rendered from the summary, not from a second pass
    # over the records.
    from repro.obsv import analyze

    calls = dict.fromkeys(
        ("critical_path", "straggler_blame", "comm_matrix", "rank_memory"), 0
    )

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analyze, name, counting(name, getattr(analyze, name)))
    records, _ = traced_run
    events = tmp_path / "t.events.jsonl"
    write_jsonl(events, records)
    assert main(["analyze", str(events)]) == 0
    assert calls == dict.fromkeys(calls, 1)
    out = capsys.readouterr().out
    for section in ("per-level table", "per-phase", "per-rank load", "counts",
                    "critical path", "straggler blame", "comm matrix", "memory"):
        assert section in out


def test_cli_report_verb_is_gone(capsys):
    # `repro analyze` is the one reader, `--trace` the one way to record;
    # the static linter went with its verb.
    for verb in ("report", "trace", "lint"):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "x"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One channel: counts come from spans and events
# ---------------------------------------------------------------------------

def test_counts_are_span_counts(traced_run):
    records, result = traced_run
    summary = build_run_summary(records)
    assert summary["comm"]["collectives"] == sum(s.collectives for s in result.stats)
    assert summary["comm"]["collectives"] == P * (ROUNDS * 2 + 1)
    assert summary["comm"]["recv_bytes"] == sum(
        row["recv_bytes"] for row in summary["comm"]["per_rank"].values()
    ) > 0
    assert summary["counts"] == {
        "coarsen.levels": 0, "ea.rounds": 0, "isolated_nodes": 0,
        "lp.iterations": 0, "lp.moved_nodes": 0,
    }


def test_legacy_metrics_line_is_ignored(traced_run, tmp_path):
    # .events.jsonl files written before the registry was deleted end in
    # a ``metrics`` line; it was never needed and must not change a thing.
    records, _ = traced_run
    path = tmp_path / "old.events.jsonl"
    write_jsonl(path, records)
    expected = build_run_summary(read_jsonl(path))
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "metrics", "metrics": {
            "counters": {"comm.collectives": 1.0, "lp.iterations": 7.0},
            "gauges": {"partition.cut": 5.0, "store.arcs_read": 9.0},
            "histograms": {},
        }}) + "\n")
    legacy = read_jsonl(path)
    assert legacy[-1]["type"] == "metrics"
    assert build_run_summary(legacy) == expected


def test_overweight_partition_is_reported_infeasible():
    from repro.core.config import fast_config
    from repro.generators.mesh import grid_2d
    from repro.graph.validation import max_block_weight_bound
    from repro.metrics import finish_partition

    graph = grid_2d(4, 4)
    lmax = max_block_weight_bound(graph, 2, 0.03)
    assert lmax == 8

    def summarise(partition):
        TRACER.enable()
        out = finish_partition(graph, partition, 2, 0.03, fast_config(k=2))
        TRACER.disable()
        assert out.lmax == lmax
        summary = build_run_summary([dict(TRACER.header)] + TRACER.snapshot())
        assert validate_run_summary(summary) == []
        return summary

    with pytest.warns(RuntimeWarning, match=r"block 0 weighs 13 > Lmax = 8"):
        lopsided = summarise(np.repeat([0, 1], [13, 3]))
    assert lopsided["quality"]["feasible"] is False
    assert lopsided["quality"]["max_block_weight"] == 13
    assert lopsided["quality"]["lmax"] == 8
    assert ("WARNING: infeasible partition: max block weight 13 exceeds Lmax 8"
            in render_analysis(lopsided))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a feasible result says nothing
        halves = summarise(np.repeat([0, 1], [8, 8]))
    assert halves["quality"]["feasible"] is True
    assert halves["quality"]["cut"] == 4
    assert "infeasible" not in render_analysis(halves)
    # a trace that never saw the verdict does not guess one
    assert build_run_summary([])["quality"]["feasible"] is None


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
    # one renderer: the header line carries what either verb used to print
    records, _ = traced_run
    first_line = render_analysis(build_run_summary(records)).splitlines()[0]
    assert first_line.startswith("trace header: ")
    for field in (f"backend spmd  p {P}", "cpu_cores", "python", "numpy",
                  "lp_kernel"):
        assert field in first_line


def test_single_core_process_backend_warns():
    header = {
        "type": "header", "cpu_cores": 1, "cpu_affinity": 1,
        "python": "3.11", "numpy": None, "backend": "process", "p": 4,
    }
    def rendered():
        return render_analysis(build_run_summary([header]))

    assert "WARNING" in rendered()
    assert "single-core" in rendered()
    # multi-core host: no warning
    header["cpu_affinity"] = 8
    header["cpu_cores"] = 8
    assert "WARNING" not in rendered()
    # thread backend wall clocks are never gated on cores
    header.update(cpu_cores=1, cpu_affinity=1, backend="spmd")
    assert "WARNING" not in rendered()
    # one kernel: the header line names it, and nothing else is said
    header.update(lp_kernel="native")
    assert "lp_kernel native" in rendered() and "NOTE" not in rendered()
