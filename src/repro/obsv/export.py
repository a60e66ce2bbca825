"""Trace exporters: JSONL event streams and Chrome-trace JSON.

Two formats, two audiences:

* **JSONL** (one JSON object per line) is the machine-readable stream —
  a ``meta`` line, the host ``header``, then every span/event record.
  ``repro analyze`` and the tests consume this.
* **Chrome trace** (the ``chrome://tracing`` / Perfetto JSON array
  format) is the human-readable timeline: one process for the simulated
  machine with one track (``tid``) per simulated rank on the *simulated*
  clock, plus a separate process for rank-less spans on the host wall
  clock (sequential runs have no simulated machine).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .tracer import TRACER, Tracer

__all__ = [
    "events_path",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: Chrome-trace pid of the simulated machine (rank-attributed records)
SIM_PID = 0
#: Chrome-trace pid of host-clock records (no rank attribution)
WALL_PID = 1

_JSONL_VERSION = 1


def _records_of(source: Tracer | Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    if isinstance(source, Tracer):
        return source.snapshot()
    return list(source)


def write_jsonl(path: str | Path,
                source: Tracer | Iterable[dict[str, Any]] = TRACER) -> Path:
    """Write one trace session as JSONL; returns the path written."""
    records = _records_of(source)
    header = source.header if isinstance(source, Tracer) else None
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "meta",
            "version": _JSONL_VERSION,
            "records": len(records),
            "clock_units": {"wall": "seconds", "sim": "seconds"},
        }) + "\n")
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def events_path(trace_out: str | Path) -> Path:
    """The JSONL stream written beside a Chrome trace (out.json -> out.events.jsonl)."""
    path = Path(trace_out)
    return path.with_name((path.stem or "trace") + ".events.jsonl")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL event stream (all record types, blank lines skipped).

    A stream starts with its ``meta`` line; anything else (a Chrome trace
    in particular) raises :class:`ValueError` naming the event stream a
    ``--trace`` run writes beside it.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in map(str.strip, fh) if line]
    if not (records and isinstance(records[0], dict)
            and records[0].get("type") == "meta"):
        raise ValueError(
            f"{path} is not an event stream: its first record is not the "
            f"meta line.  A --trace run writes its events beside the Chrome "
            f"trace, to {events_path(path)}; read that file"
        )
    return records


def _chrome_ts(record: dict[str, Any]) -> tuple[int, int, float, float]:
    """(pid, tid, ts_us, dur_us) for one span/event record.

    Rank-attributed records ride the simulated clock when it was sampled
    (falling back to wall for comm-free spans); rank-less records always
    use the host clock in their own process.
    """
    rank = record.get("rank")
    if rank is not None:
        pid = SIM_PID
        tid = int(rank)
        if record.get("sim_ts") is not None:
            ts = float(record["sim_ts"])
            dur = float(record.get("sim_dur") or 0.0)
        else:
            ts = float(record["wall_ts"])
            dur = float(record.get("wall_dur") or 0.0)
    else:
        pid = WALL_PID
        tid = 0
        ts = float(record["wall_ts"])
        dur = float(record.get("wall_dur") or 0.0)
    return pid, tid, ts * 1e6, dur * 1e6


def to_chrome_trace(source: Tracer | Iterable[dict[str, Any]] = TRACER) -> dict:
    """Convert a record stream into a Chrome-trace JSON object."""
    records = _records_of(source)
    events: list[dict[str, Any]] = []
    tracks: set[tuple[int, int]] = set()
    for record in records:
        kind = record.get("type")
        if kind not in ("span", "event"):
            continue
        pid, tid, ts, dur = _chrome_ts(record)
        tracks.add((pid, tid))
        args = dict(record.get("attrs") or {})
        if record.get("sim_ts") is not None:
            args["sim_ts"] = record["sim_ts"]
        args["wall_dur"] = record.get("wall_dur")
        entry: dict[str, Any] = {
            "name": record["name"],
            "cat": record["name"].split(".")[0],
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "args": args,
        }
        if kind == "span":
            entry["ph"] = "X"
            entry["dur"] = dur
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    # Stable nesting for Perfetto: per track by start time, outermost
    # (longest) span first on ties — sim clocks frequently coincide.
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e.get("dur", 0.0)))

    meta: list[dict[str, Any]] = []
    pids = {pid for pid, _tid in tracks}
    if SIM_PID in pids:
        meta.append({"name": "process_name", "ph": "M", "pid": SIM_PID, "tid": 0,
                     "args": {"name": "simulated machine"}})
    if WALL_PID in pids:
        meta.append({"name": "process_name", "ph": "M", "pid": WALL_PID, "tid": 0,
                     "args": {"name": "host (wall clock)"}})
    for pid, tid in sorted(tracks):
        label = f"rank {tid}" if pid == SIM_PID else "main"
        meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": label}})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obsv",
            "sim_clock": "microseconds of simulated machine time",
        },
    }


def write_chrome_trace(path: str | Path,
                       source: Tracer | Iterable[dict[str, Any]] = TRACER) -> Path:
    """Write the Chrome-trace JSON file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(source)) + "\n", encoding="utf-8")
    return path
