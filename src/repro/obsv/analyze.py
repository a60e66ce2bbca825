"""Trace analytics: critical path, straggler blame, comm matrix, run summary.

``repro report`` renders what happened; this module answers *why it took
that long* and emits a versioned machine-readable ``run.json`` other
tools (CI regression gates, the auto-tuning and out-of-core work) can
diff.  Four analyses over one JSONL record stream:

* **Critical path** — the collectives (``comm.<op>`` spans) are the
  synchronization edges of an SPMD run: no rank leaves collective *s*
  before the last rank enters it.  The path therefore hops between
  ranks at collectives: compute rides the rank whose arrival gated the
  *next* collective (the straggler), the collective itself bridges from
  that straggler's entry to the continuing rank's exit.  Segments
  telescope by construction, so their durations sum exactly to the
  run's end-to-end time — the whole run is accounted for, nothing is
  double-counted.
* **Straggler blame** — per collective, every other rank's wait
  (straggler entry − own entry) is charged to the straggler, rolled up
  per rank, per phase, and per contraction level.
* **Comm matrix** — the p×p sent-bytes matrix from the per-destination
  ``comm.sent`` events of tagged alltoalls, per op, so the delta label
  exchange (``alltoall[lp.labels]``) is visible against dense traffic.
* **Memory** — per-rank peak/current RSS from the ``mem.rank`` events
  (real per-process samples under the process backend, one shared
  sample flagged ``shared`` under the thread backend).

The module is stdlib-only like the rest of :mod:`repro.obsv`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable

from .report import (
    PHASES,
    _format_table,
    _spans,
    phase_times,
    rank_load,
    single_core_caveat,
    trace_header,
)

__all__ = [
    "RUN_SUMMARY_SCHEMA",
    "build_run_summary",
    "comm_matrix",
    "compare_run_summaries",
    "critical_path",
    "rank_memory",
    "render_analysis",
    "straggler_blame",
    "validate_run_summary",
    "write_run_summary",
]

#: schema identifier stamped into (and required of) every run summary
#: (v2: the header says which LP kernel ran, ``lp_kernel``, and on the
#: NumPy fallback why, ``lp_kernel_fallback``)
RUN_SUMMARY_SCHEMA = "repro.run_summary/v2"

#: top-level keys every valid run summary must carry
_SUMMARY_KEYS = (
    "schema", "header", "wall_time_s", "quality", "phases",
    "convergence", "comm", "critical_path", "blame", "memory",
)


# ---------------------------------------------------------------------------
# Shared extraction helpers
# ---------------------------------------------------------------------------

def _comm_spans_by_rank(records: list[dict]) -> dict[int, list[dict]]:
    """Rank -> its ``comm.*`` spans in collective order (``seq`` attr)."""
    by_rank: dict[int, list[dict]] = defaultdict(list)
    for span in _spans(records):
        if span.get("rank") is not None and str(span["name"]).startswith("comm."):
            by_rank[span["rank"]].append(span)
    for spans in by_rank.values():
        spans.sort(key=lambda s: ((s.get("attrs") or {}).get("seq", 0),
                                  s.get("wall_ts", 0.0)))
    return dict(by_rank)


def _ranked_extent(records: list[dict]) -> tuple[float, float] | None:
    """(origin, end) of the rank-attributed wall timeline, if any."""
    starts = []
    ends = []
    for span in _spans(records):
        if span.get("rank") is None:
            continue
        ts = float(span.get("wall_ts") or 0.0)
        starts.append(ts)
        ends.append(ts + float(span.get("wall_dur") or 0.0))
    if not starts:
        return None
    return min(starts), max(ends)


def _interval_index(records: list[dict], names: tuple[str, ...]):
    """Per-rank sorted (start, end, span) intervals for the named spans."""
    index: dict[int, list[tuple[float, float, dict]]] = defaultdict(list)
    for span in _spans(records):
        rank = span.get("rank")
        if rank is None or span["name"] not in names:
            continue
        start = float(span.get("wall_ts") or 0.0)
        index[rank].append((start, start + float(span.get("wall_dur") or 0.0), span))
    for intervals in index.values():
        intervals.sort(key=lambda iv: (iv[0], -(iv[1] - iv[0])))
    return index


def _enclosing(index, rank: int, instant: float) -> dict | None:
    """Innermost indexed span on ``rank`` containing the wall instant."""
    best: dict | None = None
    best_width = None
    for start, end, span in index.get(rank, ()):
        if start > instant:
            break
        if instant <= end and (best_width is None or end - start <= best_width):
            best = span
            best_width = end - start
    return best


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def critical_path(records: Iterable[dict]) -> dict[str, Any]:
    """Extract the synchronization-aware critical path (wall clock).

    Returns a dict with the alternating ``segments`` (compute/comm, each
    ``{kind, rank, start, end, dur, ...}``), the end-to-end ``total``,
    and the compute/comm split.  By construction consecutive segments
    share their boundary instants, so ``sum(dur) == total`` up to float
    rounding — the property the identity test enforces.
    """
    records = list(records)
    by_rank = _comm_spans_by_rank(records)
    extent = _ranked_extent(records)
    if not by_rank or extent is None:
        return {"clock": "wall", "ranks": [], "collectives": 0, "truncated": False,
                "total": 0.0, "compute_s": 0.0, "comm_s": 0.0, "segments": []}
    origin, end = extent
    ranks = sorted(by_rank)
    depth = min(len(spans) for spans in by_rank.values())
    truncated = any(len(spans) != depth for spans in by_rank.values())

    entry = {r: [float(s["wall_ts"]) for s in by_rank[r][:depth]] for r in ranks}
    exit_ = {r: [float(s["wall_ts"]) + float(s.get("wall_dur") or 0.0)
                 for s in by_rank[r][:depth]] for r in ranks}

    # Rank carrying the path after collective s: for s < depth the
    # straggler whose late arrival gated it; after the last collective,
    # the rank that finishes the run.
    rank_end = {r: origin for r in ranks}
    for span in _spans(records):
        r = span.get("rank")
        if r in rank_end:
            stop = float(span.get("wall_ts") or 0.0) + float(span.get("wall_dur") or 0.0)
            if stop > rank_end[r]:
                rank_end[r] = stop
    carrier = [max(ranks, key=lambda r: entry[r][s]) for s in range(depth)]
    carrier.append(max(ranks, key=lambda r: rank_end[r]))

    segments: list[dict[str, Any]] = []

    def _push(kind: str, rank: int, start: float, stop: float, **extra: Any) -> None:
        segments.append({
            "kind": kind, "rank": rank, "start": start, "end": stop,
            "dur": stop - start, **extra,
        })

    _push("compute", carrier[0], origin,
          entry[carrier[0]][0] if depth else rank_end[carrier[0]])
    for s in range(depth):
        straggler, cont = carrier[s], carrier[s + 1]
        attrs = by_rank[straggler][s].get("attrs") or {}
        waits = {r: entry[straggler][s] - entry[r][s] for r in ranks}
        _push(
            "comm", straggler, entry[straggler][s], exit_[cont][s],
            op=attrs.get("op") or by_rank[straggler][s]["name"][5:],
            seq=attrs.get("seq"), to_rank=cont,
            wait_s=sum(max(0.0, w) for w in waits.values()),
        )
        next_stop = entry[cont][s + 1] if s + 1 < depth else rank_end[cont]
        _push("compute", cont, exit_[cont][s], next_stop)
    # The path ends where the finishing rank does; extend `end` for the
    # total only if some other rank's span outlives it (clock skew).
    total = segments[-1]["end"] - origin

    compute_s = sum(seg["dur"] for seg in segments if seg["kind"] == "compute")
    comm_s = sum(seg["dur"] for seg in segments if seg["kind"] == "comm")
    return {
        "clock": "wall",
        "ranks": ranks,
        "collectives": depth,
        "truncated": truncated,
        "origin": origin,
        "total": total,
        "compute_s": compute_s,
        "comm_s": comm_s,
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# Straggler blame
# ---------------------------------------------------------------------------

#: span names that scope a collective to a contraction level
_LEVEL_SPANS = ("coarsen.level", "uncoarsen.level")


def straggler_blame(records: Iterable[dict]) -> dict[str, Any]:
    """Charge every rank's wait at each collective to its straggler.

    For collective *s* with straggler entry time ``t*``, each rank ``r``
    waited ``t* - entry[r]``; that wait is *caused by* the straggler, so
    it accrues to the straggler's account.  Rolled up ``per_rank``,
    ``per_phase`` (the straggler's enclosing pipeline phase span) and
    ``per_level`` (its enclosing ``coarsen.level``/``uncoarsen.level``).
    Keys are strings so the rollups serialize to JSON unchanged.
    """
    records = list(records)
    by_rank = _comm_spans_by_rank(records)
    out: dict[str, Any] = {
        "total_wait_s": 0.0,
        "per_rank": {},
        "per_phase": {},
        "per_level": {},
    }
    if not by_rank:
        return out
    ranks = sorted(by_rank)
    depth = min(len(spans) for spans in by_rank.values())
    phase_index = _interval_index(records, PHASES)
    level_index = _interval_index(records, _LEVEL_SPANS)

    per_rank: dict[str, float] = defaultdict(float)
    per_phase: dict[str, float] = defaultdict(float)
    per_level: dict[str, float] = defaultdict(float)
    total = 0.0
    for s in range(depth):
        entries = {r: float(by_rank[r][s]["wall_ts"]) for r in ranks}
        straggler = max(ranks, key=lambda r: entries[r])
        wait = sum(max(0.0, entries[straggler] - entries[r]) for r in ranks)
        if wait <= 0.0:
            continue
        total += wait
        per_rank[str(straggler)] += wait
        phase = _enclosing(phase_index, straggler, entries[straggler])
        per_phase[phase["name"] if phase else "(outside phases)"] += wait
        level = _enclosing(level_index, straggler, entries[straggler])
        if level is not None:
            attrs = level.get("attrs") or {}
            per_level[f"{level['name']}[{attrs.get('level')}]"] += wait
    out["total_wait_s"] = total
    out["per_rank"] = dict(sorted(per_rank.items(), key=lambda kv: -kv[1]))
    out["per_phase"] = dict(sorted(per_phase.items(), key=lambda kv: -kv[1]))
    out["per_level"] = dict(sorted(per_level.items(), key=lambda kv: -kv[1]))
    return out


# ---------------------------------------------------------------------------
# Communication matrix
# ---------------------------------------------------------------------------

def comm_matrix(records: Iterable[dict], size: int | None = None) -> dict[str, Any]:
    """The p×p sent-bytes matrix from per-destination ``comm.sent`` events.

    ``total[src][dst]`` sums every alltoall payload rank ``src``
    addressed to rank ``dst`` (diagonal = self-destined payloads, which
    never hit the wire); ``per_op`` splits the same matrix by tagged op,
    so delta vs dense label exchanges are separable.  Row sums excluding
    the diagonal equal :class:`~repro.dist.comm.CommStats.bytes_sent` —
    the identity the test suite enforces.
    """
    events = [
        r for r in records
        if r.get("type") == "event" and r.get("name") == "comm.sent"
        and r.get("rank") is not None
    ]
    ranks = {int(e["rank"]) for e in events}
    for event in events:
        ranks.update(range(len((event.get("attrs") or {}).get("sent") or [])))
    p = size if size is not None else (max(ranks) + 1 if ranks else 0)
    total = [[0] * p for _ in range(p)]
    per_op: dict[str, list[list[int]]] = {}
    for event in events:
        src = int(event["rank"])
        attrs = event.get("attrs") or {}
        sent = attrs.get("sent") or []
        op = str(attrs.get("op") or "alltoall")
        op_matrix = per_op.setdefault(op, [[0] * p for _ in range(p)])
        for dst, nbytes in enumerate(sent):
            if dst < p and src < p:
                total[src][dst] += int(nbytes)
                op_matrix[src][dst] += int(nbytes)
    off_diagonal = [
        sum(row[dst] for dst in range(p) if dst != src)
        for src, row in enumerate(total)
    ]
    return {
        "size": p,
        "total": total,
        "per_op": per_op,
        "sent_bytes_per_rank": off_diagonal,
    }


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def rank_memory(records: Iterable[dict]) -> dict[str, Any]:
    """Per-rank RSS from ``mem.rank`` events (last sample per rank wins).

    Falls back to the largest phase-span ``peak_rss_bytes`` attribute of
    each rank when a trace predates the runtime events.
    """
    per_rank: dict[int, dict[str, Any]] = {}
    for record in records:
        rank = record.get("rank")
        if rank is None:
            continue
        attrs = record.get("attrs") or {}
        if record.get("type") == "event" and record.get("name") == "mem.rank":
            per_rank[int(rank)] = {
                "rss_bytes": int(attrs.get("rss_bytes") or 0),
                "peak_rss_bytes": int(attrs.get("peak_rss_bytes") or 0),
                "shared": bool(attrs.get("shared")),
            }
        elif record.get("type") == "span" and "peak_rss_bytes" in attrs:
            entry = per_rank.setdefault(
                int(rank), {"rss_bytes": 0, "peak_rss_bytes": 0, "shared": False}
            )
            entry["peak_rss_bytes"] = max(
                entry["peak_rss_bytes"], int(attrs["peak_rss_bytes"] or 0)
            )
    peaks = [row["peak_rss_bytes"] for row in per_rank.values()]
    return {
        "per_rank": {str(r): per_rank[r] for r in sorted(per_rank)},
        "peak_rss_bytes": max(peaks) if peaks else 0,
    }


# ---------------------------------------------------------------------------
# Run summary (the machine-readable run.json)
# ---------------------------------------------------------------------------

def _metrics_record(records: list[dict]) -> dict:
    for record in records:
        if record.get("type") == "metrics":
            return record.get("metrics") or {}
    return {}


def _convergence(records: list[dict]) -> list[dict[str, Any]]:
    """LP trajectory: one point per (rank 0 / rank-less) lp.iteration span."""
    points = []
    for span in _spans(records, "lp.iteration"):
        if span.get("rank") not in (None, 0):
            continue
        attrs = span.get("attrs") or {}
        points.append({
            "mode": attrs.get("mode"),
            "iteration": attrs.get("iteration"),
            "sweep": attrs.get("sweep"),
            "chunk_size": attrs.get("chunk_size"),
            "moved": attrs.get("moved"),
            "global_changed": attrs.get("global_changed"),
            "frontier_frac": attrs.get("frontier_frac"),
        })
    return points


def build_run_summary(records: Iterable[dict]) -> dict[str, Any]:
    """Assemble the versioned ``run.json`` document for one trace."""
    records = list(records)
    metrics = _metrics_record(records)
    gauges = metrics.get("gauges") or {}
    counters = metrics.get("counters") or {}
    header = trace_header(records)
    extent = _ranked_extent(records)
    load = rank_load(records)
    move_values = [row["moves"] for row in load.values()]
    move_mean = sum(move_values) / len(move_values) if move_values else 0.0
    path = critical_path(records)
    # run.json keeps only the heaviest segments; the full alternating
    # chain is recomputable from the trace, and truncation is declared.
    top_segments = sorted(path["segments"], key=lambda s: -s["dur"])[:20]
    cut = gauges.get("partition.cut")
    if cut is None:
        refined = [
            (r.get("attrs") or {}).get("cut_refined")
            for r in records
            if r.get("type") == "event" and r.get("name") == "uncoarsen.level"
        ]
        refined = [c for c in refined if c is not None]
        cut = refined[-1] if refined else None
    return {
        "schema": RUN_SUMMARY_SCHEMA,
        "header": header,
        "wall_time_s": (extent[1] - extent[0]) if extent else 0.0,
        "quality": {
            "cut": cut,
            "imbalance": gauges.get("partition.imbalance"),
            "lp_move_imbalance": (
                max(move_values) / move_mean if move_mean > 0 else None
            ),
        },
        "phases": phase_times(records),
        "convergence": _convergence(records),
        "comm": {
            "matrix": comm_matrix(records),
            "collectives": counters.get("comm.collectives"),
            "recv_bytes": counters.get("comm.recv_bytes"),
            "per_rank": {str(r): row for r, row in load.items()},
        },
        "critical_path": {
            "clock": path["clock"],
            "ranks": path["ranks"],
            "collectives": path["collectives"],
            "truncated": path["truncated"],
            "total_s": path["total"],
            "compute_s": path["compute_s"],
            "comm_s": path["comm_s"],
            "top_segments": top_segments,
            "segments_kept": len(top_segments),
            "segments_total": len(path["segments"]),
        },
        "blame": straggler_blame(records),
        "memory": rank_memory(records),
        # Graph-store disk traffic (out-of-core runs); empty for
        # resident stores.  Not a required v1 key.
        "store": {
            name.removeprefix("store."): value
            for name, value in gauges.items()
            if name.startswith("store.")
        },
    }


def validate_run_summary(doc: Any) -> list[str]:
    """Schema check for a run summary; returns a list of problems."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"run summary must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != RUN_SUMMARY_SCHEMA:
        errors.append(
            f"schema mismatch: expected {RUN_SUMMARY_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    for key in _SUMMARY_KEYS:
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if not isinstance(doc["wall_time_s"], (int, float)):
        errors.append("wall_time_s must be a number")
    for key, want in (("quality", dict), ("phases", dict), ("comm", dict),
                      ("critical_path", dict), ("blame", dict),
                      ("memory", dict), ("convergence", list)):
        if not isinstance(doc[key], want):
            errors.append(f"{key} must be a {want.__name__}")
    if errors:
        return errors
    header = doc["header"] or {}
    kernel = header.get("lp_kernel")
    if kernel not in (None, "native", "numpy"):
        errors.append("header.lp_kernel must be 'native' or 'numpy'")
    fallback = header.get("lp_kernel_fallback")
    if (kernel == "numpy") != (isinstance(fallback, str) and bool(fallback)):
        errors.append(
            "header.lp_kernel_fallback must give the reason exactly when "
            "header.lp_kernel is 'numpy'"
        )
    matrix = (doc["comm"].get("matrix") or {})
    p = matrix.get("size")
    rows = matrix.get("total")
    if not isinstance(p, int) or not isinstance(rows, list) or len(rows) != p \
            or any(not isinstance(row, list) or len(row) != p for row in rows):
        errors.append("comm.matrix.total must be a size×size list of lists")
    cp = doc["critical_path"]
    for key in ("total_s", "compute_s", "comm_s"):
        if not isinstance(cp.get(key), (int, float)):
            errors.append(f"critical_path.{key} must be a number")
    mem = doc["memory"]
    if not isinstance(mem.get("per_rank"), dict):
        errors.append("memory.per_rank must be a dict")
    if not isinstance(mem.get("peak_rss_bytes"), int):
        errors.append("memory.peak_rss_bytes must be an integer")
    return errors


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------

def compare_run_summaries(
    current: dict,
    baseline: dict,
    *,
    quality_tolerance: float = 0.05,
    time_tolerance: float = 0.5,
    rss_tolerance: float = 0.5,
) -> list[str]:
    """Regressions of ``current`` against ``baseline`` (empty = clean).

    Quality (cut, imbalance) is gated tightly — partitioning is seeded,
    so drift is a real change; wall time and RSS get loose fractional
    tolerances because they are host-noisy.  Only degradations fail:
    improvements pass silently.
    """
    problems: list[str] = []

    def _gate(label: str, cur: Any, base: Any, tolerance: float) -> None:
        if cur is None or base is None:
            return
        cur, base = float(cur), float(base)
        limit = base * (1.0 + tolerance) if base > 0 else tolerance
        if cur > limit:
            problems.append(
                f"{label} regressed: {cur:g} > {base:g} "
                f"(+{tolerance:.0%} tolerance = {limit:g})"
            )

    cur_q = current.get("quality") or {}
    base_q = baseline.get("quality") or {}
    _gate("quality.cut", cur_q.get("cut"), base_q.get("cut"), quality_tolerance)
    _gate("quality.imbalance", cur_q.get("imbalance"), base_q.get("imbalance"),
          quality_tolerance)
    _gate("wall_time_s", current.get("wall_time_s"), baseline.get("wall_time_s"),
          time_tolerance)
    cur_mem = (current.get("memory") or {}).get("peak_rss_bytes")
    base_mem = (baseline.get("memory") or {}).get("peak_rss_bytes")
    _gate("memory.peak_rss_bytes", cur_mem or None, base_mem or None,
          rss_tolerance)
    return problems


# ---------------------------------------------------------------------------
# Human rendering
# ---------------------------------------------------------------------------

def _bytes_fmt(n: int | float | None) -> str:
    if n is None:
        return "-"
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:,.0f}{unit}" if unit == "B" else f"{n:,.1f}{unit}"
        n /= 1024.0
    return f"{n:,.1f}GiB"


def _critical_path_table(path: dict[str, Any]) -> str:
    if not path["segments"]:
        return ("critical path: no rank-attributed collectives in this trace "
                "(sequential run?)")
    lines = [
        "critical path (wall clock, collectives as synchronization edges)",
        f"  total {path['total'] * 1e3:,.2f} ms = "
        f"compute {path['compute_s'] * 1e3:,.2f} ms + "
        f"comm {path['comm_s'] * 1e3:,.2f} ms "
        f"over {path['collectives']} collectives, ranks {path['ranks']}"
        + (" [TRUNCATED: unequal collective counts]" if path["truncated"] else ""),
    ]
    top = sorted(path["segments"], key=lambda s: -s["dur"])[:10]
    rows = []
    for seg in top:
        what = seg.get("op", "") if seg["kind"] == "comm" else ""
        rows.append([
            seg["kind"], str(seg["rank"]), what,
            f"{seg['dur'] * 1e3:,.3f}",
            f"{seg.get('wait_s', 0.0) * 1e3:,.3f}" if seg["kind"] == "comm" else "-",
        ])
    lines.append(_format_table(
        "  heaviest segments",
        ["kind", "rank", "op", "dur[ms]", "wait[ms]"],
        rows,
    ))
    return "\n".join(lines)


def _blame_table(blame: dict[str, Any]) -> str:
    if not blame["per_rank"]:
        return "straggler blame: no collective waits recorded"
    rows = [
        [rank, f"{wait * 1e3:,.3f}"]
        for rank, wait in blame["per_rank"].items()
    ]
    table = _format_table(
        f"straggler blame (total wait {blame['total_wait_s'] * 1e3:,.2f} ms, "
        "charged to the gating rank)",
        ["rank", "wait caused[ms]"],
        rows,
    )
    if blame["per_phase"]:
        phase_rows = [
            [phase, f"{wait * 1e3:,.3f}"]
            for phase, wait in blame["per_phase"].items()
        ]
        table += "\n" + _format_table(
            "by phase", ["phase", "wait[ms]"], phase_rows
        )
    return table


def _comm_matrix_table(matrix: dict[str, Any]) -> str:
    p = matrix["size"]
    if not p:
        return "comm matrix: no tagged alltoall traffic in this trace"
    headers = ["src\\dst"] + [str(d) for d in range(p)] + ["sent(off-diag)"]
    rows = []
    for src in range(p):
        rows.append(
            [str(src)]
            + [_bytes_fmt(matrix["total"][src][dst]) for dst in range(p)]
            + [_bytes_fmt(matrix["sent_bytes_per_rank"][src])]
        )
    table = _format_table("comm matrix (alltoall sent bytes)", headers, rows)
    ops = ", ".join(sorted(matrix["per_op"]))
    if ops:
        table += f"\nops: {ops}"
    return table


def _memory_table(memory: dict[str, Any]) -> str:
    if not memory["per_rank"]:
        return "memory: no RSS samples in this trace"
    rows = [
        [rank, _bytes_fmt(row["rss_bytes"]), _bytes_fmt(row["peak_rss_bytes"]),
         "yes" if row.get("shared") else "no"]
        for rank, row in memory["per_rank"].items()
    ]
    return _format_table(
        f"memory (peak RSS {_bytes_fmt(memory['peak_rss_bytes'])})",
        ["rank", "rss", "peak rss", "shared"],
        rows,
    )


def render_analysis(records: Iterable[dict]) -> str:
    """The full human-readable ``repro analyze`` output."""
    records = list(records)
    sections = []
    header = trace_header(records)
    if header is not None:
        parts = [
            f"backend {header.get('backend') or '-'}",
            f"p {header.get('p') or '-'}",
            f"cpu_cores {header.get('cpu_cores') or '?'}",
            f"python {header.get('python') or '?'}",
            f"lp_kernel {header.get('lp_kernel') or '-'}",
        ]
        block = "trace header: " + "  ".join(parts)
        if header.get("lp_kernel_fallback"):
            block += (
                "\nNOTE: the compiled LP kernel was not used "
                f"({header['lp_kernel_fallback']}); LP ran on the NumPy kernels"
            )
        caveat = single_core_caveat(header)
        if caveat is not None:
            block += "\n" + caveat
        sections.append(block)
    path = critical_path(records)
    sections.append(_critical_path_table(path))
    sections.append(_blame_table(straggler_blame(records)))
    sections.append(_comm_matrix_table(comm_matrix(records)))
    sections.append(_memory_table(rank_memory(records)))
    return "\n\n".join(sections)


def write_run_summary(path: str, records: Iterable[dict]) -> dict[str, Any]:
    """Build, validate and write ``run.json``; returns the document.

    Raises :class:`ValueError` when the built document fails its own
    schema — that is a bug in this module, not in the trace, and CI
    wants it loud.
    """
    doc = build_run_summary(records)
    errors = validate_run_summary(doc)
    if errors:
        raise ValueError(
            "built run summary violates its own schema: " + "; ".join(errors)
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc
