"""Unit tests for the span tracer and exporters."""

from __future__ import annotations

import json

import pytest

from repro.obsv import (
    TRACER,
    read_jsonl,
    to_chrome_trace,
    trace_session,
    write_chrome_trace,
    write_jsonl,
)
from repro.obsv.export import SIM_PID, WALL_PID
from repro.obsv.tracer import _NOOP_SPAN


class TestSpans:
    def test_nesting_depth_and_parent(self):
        TRACER.enable()
        with TRACER.span("outer"):
            with TRACER.span("inner"):
                pass
        outer = next(r for r in TRACER.records if r["name"] == "outer")
        inner = next(r for r in TRACER.records if r["name"] == "inner")
        assert outer["depth"] == 0 and outer["parent"] is None
        assert inner["depth"] == 1 and inner["parent"] == "outer"
        # inner closed first
        assert TRACER.records.index(inner) < TRACER.records.index(outer)

    def test_span_attributes_via_set(self):
        TRACER.enable()
        with TRACER.span("lp.iteration", rank=2, moved=0) as sp:
            sp.set(moved=17, chunks=3)
        (rec,) = TRACER.records
        assert rec["rank"] == 2
        assert rec["attrs"] == {"moved": 17, "chunks": 3}
        assert rec["wall_dur"] >= 0.0
        assert rec["sim_ts"] is None  # no comm supplied

    def test_comm_supplies_rank_and_sim_clock(self):
        class FakeComm:
            rank = 1
            sim_time = 4.5

        TRACER.enable()
        comm = FakeComm()
        with TRACER.span("comm.test", comm=comm):
            comm.sim_time = 5.0
        (rec,) = TRACER.records
        assert rec["rank"] == 1
        assert rec["sim_ts"] == 4.5
        assert rec["sim_dur"] == pytest.approx(0.5)

    def test_events_are_instant(self):
        TRACER.enable()
        TRACER.event("coarsen.level", level=0, shrink=2.5)
        (rec,) = TRACER.records
        assert rec["type"] == "event"
        assert rec["attrs"]["shrink"] == 2.5

    def test_last_span_survives_for_watchdog(self):
        TRACER.enable()
        with TRACER.span("lp.iteration", rank=3, iteration=7):
            assert TRACER.last_span(3) == "lp.iteration(iteration=7)"
        # still available after exit (the watchdog fires mid-deadlock,
        # but the table is not cleared on exit either)
        assert "lp.iteration" in TRACER.last_span(3)
        assert TRACER.last_span(99) is None


class TestDisabledNoop:
    def test_disabled_span_is_shared_singleton(self):
        assert not TRACER.enabled
        assert TRACER.span("x") is TRACER.span("y")
        assert TRACER.span("x") is _NOOP_SPAN

    def test_disabled_records_nothing(self):
        with TRACER.span("x", rank=0) as sp:
            sp.set(ignored=True)
        TRACER.event("e", rank=0)
        TRACER.record_span("s", rank=0, wall_ts=0, wall_dur=0,
                           sim_ts=None, sim_dur=None)
        assert TRACER.records == []
        assert TRACER.last_span(0) is None

    def test_enable_resets_by_default(self):
        TRACER.enable()
        TRACER.event("old")
        TRACER.disable()
        TRACER.enable()
        assert TRACER.records == []
        TRACER.event("kept")
        TRACER.disable()
        TRACER.enable(reset=False)
        assert [r["name"] for r in TRACER.records] == ["kept"]

    def test_trace_session_always_disarms(self):
        with pytest.raises(RuntimeError):
            with trace_session():
                assert TRACER.enabled
                raise RuntimeError("boom")
        assert not TRACER.enabled


class TestExport:
    def _session(self):
        TRACER.enable()
        with TRACER.span("vcycle", cycle=0):
            with TRACER.span("lp.iteration", rank=1, moved=3):
                pass
        TRACER.event("coarsen.level", rank=0, level=0)
        TRACER.disable()

    def test_jsonl_roundtrip(self, tmp_path):
        self._session()
        path = write_jsonl(tmp_path / "t.events.jsonl", TRACER)
        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert records[0]["records"] == len(TRACER.records)
        # spans and events are the whole stream: meta, header, records
        assert [r["type"] for r in records[:2]] == ["meta", "header"]
        assert {r["type"] for r in records[2:]} == {"span", "event"}
        assert len(records) == 2 + len(TRACER.records)
        names = {r.get("name") for r in records if r.get("type") == "span"}
        assert names == {"vcycle", "lp.iteration"}

    def test_chrome_trace_schema(self, tmp_path):
        self._session()
        path = write_chrome_trace(tmp_path / "t.json", TRACER)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        for e in events:
            assert e["ph"] in ("X", "M", "i")
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            if e["ph"] == "i":
                assert e["s"] == "t"
        # rank-attributed records land on the simulated machine process,
        # rank-less ones on the host process
        assert any(e["pid"] == SIM_PID and e["tid"] == 1 for e in events)
        assert any(e["pid"] == WALL_PID for e in events)
        process_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {"simulated machine", "host (wall clock)"}

    def test_chrome_spans_sorted_within_track(self):
        self._session()
        trace = to_chrome_trace(TRACER)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        keys = [(e["pid"], e["tid"], e["ts"], -e["dur"]) for e in xs]
        assert keys == sorted(keys)
