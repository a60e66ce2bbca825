"""Trace analytics: the one reader of a recorded trace.

The span/event stream is the only thing a traced run records, and this
module is the only thing that reads it back: ``repro analyze`` builds
the versioned machine-readable ``run.json`` (:func:`build_run_summary`)
that other tools (CI gates, the bench) can read, and renders
that same document for people (:func:`render_analysis`).  Every number
is derived from the stream, so it means the same on the local, thread
and process backends (worker records are merged by
:meth:`~repro.obsv.tracer.Tracer.absorb`):

* **Per-level rows** — level sizes, shrink per cluster-contraction
  level and the cut after projection / after refinement on every level
  of every V-cycle (the KaHIP-user-guide style table), from the
  ``coarsen.level`` / ``initial.cut`` / ``uncoarsen.level`` events.
* **Per-phase times** — simulated (max over ranks) and wall seconds per
  pipeline phase; **per-rank load** — LP moves, collectives and received
  bytes per rank; **counts** — LP iterations, moved nodes, contraction
  levels, EA rounds, collectives: span and event counts, not a second
  bookkeeping channel; plus the input's isolated nodes (which the
  multilevel pipelines set apart), off the ``partition.quality`` event.
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
* **Quality** — the ``partition.quality`` event: cut, imbalance, and the
  heaviest block against Lmax, i.e. whether the result is feasible.

The module is stdlib-only like the rest of :mod:`repro.obsv`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable

__all__ = [
    "RUN_SUMMARY_SCHEMA",
    "build_run_summary",
    "comm_matrix",
    "critical_path",
    "phase_times",
    "rank_load",
    "rank_memory",
    "render_analysis",
    "straggler_blame",
    "trace_header",
    "validate_run_summary",
    "write_run_summary",
]

#: schema identifier stamped into (and required of) every run summary
#: (v2: ``header.lp_kernel``, always ``native`` now; v3: ``levels`` and
#: ``counts``, ``quality.feasible`` with the weights behind it, and
#: ``comm.collectives`` / ``comm.recv_bytes`` as integers on every backend)
RUN_SUMMARY_SCHEMA = "repro.run_summary/v3"

#: top-level keys every valid run summary must carry
_SUMMARY_KEYS = (
    "schema", "header", "wall_time_s", "quality", "levels", "phases",
    "counts", "convergence", "comm", "critical_path", "blame", "memory",
)

#: span names of the pipeline phases (parallel and sequential emit these)
PHASES = ("coarsening", "initial", "refinement")
#: the steps of every ``kaffpa_partition`` call, nested inside ``initial``
KAFFPA_STEPS = ("kaffpa.coarsen", "kaffpa.initial", "kaffpa.refine")
#: the rows of ``phases`` in ``run.json``, in reading order; ``launch``
#: is a process rank's start, from the parent's ``start()`` to its program
_PHASE_ROWS = ("launch", "coarsening", "initial", *KAFFPA_STEPS, "refinement")


# ---------------------------------------------------------------------------
# Shared extraction helpers
# ---------------------------------------------------------------------------

def _events(records: Iterable[dict], name: str) -> list[dict]:
    return [r for r in records if r.get("type") == "event" and r.get("name") == name]


def _spans(records: Iterable[dict], name: str | None = None) -> list[dict]:
    return [
        r for r in records
        if r.get("type") == "span" and (name is None or r.get("name") == name)
    ]


def trace_header(records: Iterable[dict]) -> dict | None:
    """The ``header`` record of a stream, if the session recorded one."""
    for record in records:
        if record.get("type") == "header":
            return record
    return None


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


def _wall_extent(records: list[dict]) -> tuple[float, float] | None:
    """(origin, end) of the wall timeline: over the rank-attributed spans
    when there are ranks, over every span of a (sequential) rank-less trace."""
    spans = _spans(records)
    spans = [s for s in spans if s.get("rank") is not None] or spans
    if not spans:
        return None
    starts = [float(s.get("wall_ts") or 0.0) for s in spans]
    ends = [t + float(s.get("wall_dur") or 0.0) for t, s in zip(starts, spans)]
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
    extent = _wall_extent(records)
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
# Per-level rows, per-phase times, per-rank load
# ---------------------------------------------------------------------------

def _first_attrs(events: list[dict], *keys: str) -> dict[tuple, dict]:
    """Attrs of the first event per key tuple (tolerates per-rank repeats)."""
    out: dict[tuple, dict] = {}
    for event in events:
        attrs = event.get("attrs") or {}
        out.setdefault(tuple(attrs.get(k) for k in keys), attrs)
    return out


def _level_rows(records: list[dict]) -> list[dict[str, Any]]:
    """One row per graph of every V-cycle's hierarchy, coarsest first.

    Graph ``g`` of a cycle with ``num`` contractions is sized by
    contraction ``g - 1``'s coarse side (the input, ``g = 0``, by
    contraction 0's fine side).  The coarsest graph carries the initial
    partitioner's cut, every finer one the cut its uncoarsening pass
    projected and then refined.
    """
    coarsen = _first_attrs(_events(records, "coarsen.level"), "cycle", "level")
    uncoarsen = _first_attrs(_events(records, "uncoarsen.level"), "cycle", "level")
    initial = _first_attrs(_events(records, "initial.cut"), "cycle")
    cycles = sorted(
        {key[0] for key in (*coarsen, *uncoarsen, *initial)},
        key=lambda c: (c is None, c),
    )
    rows = []
    for cycle in cycles:
        num = sum(1 for cyc, _level in coarsen if cyc == cycle)
        init = initial.get((cycle,), {})
        for g in range(num, -1, -1):
            built = coarsen.get((cycle, g - 1), {})  # contraction g - 1 built graph g
            if g:
                nodes, edges = built.get("coarse_nodes"), built.get("coarse_edges")
            elif num:
                down = coarsen[(cycle, 0)]
                nodes, edges = down.get("fine_nodes"), down.get("fine_edges")
            else:
                nodes, edges = init.get("nodes"), None
            if g == num:
                projected = init.get("cut")
                refined = init.get("cut_refined", projected)
            else:
                up = uncoarsen.get((cycle, g), {})
                projected, refined = up.get("cut_projected"), up.get("cut_refined")
            rows.append({
                "cycle": cycle, "level": g, "nodes": nodes, "edges": edges,
                "shrink": built.get("shrink"), "bound": built.get("bound"),
                "heaviest": built.get("heaviest"), "cut_projected": projected,
                "cut_refined": refined,
            })
    return rows


def phase_times(records: Iterable[dict]) -> dict[str, dict[str, float | None]]:
    """Per-phase times: ``{phase: {"sim": max-over-ranks, "wall": rank-0}}``.

    Sim seconds are summed over cycles per rank, then maxed over ranks
    (the parallel makespan of that phase); wall seconds are the rank-0 /
    rank-less sums so the thread backend's GIL interleaving is not
    double-counted.  Phases absent from the trace map to ``None``.  The
    three :data:`KAFFPA_STEPS` follow the phases they split ``initial``
    into; they have no simulated clock, and neither has ``launch``, which
    only process ranks record.
    """
    sim_by_phase_rank: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    wall_by_phase: dict[str, float] = defaultdict(float)
    for span in _spans(records):
        if span["name"] not in _PHASE_ROWS:
            continue
        rank = span.get("rank")
        if span.get("sim_dur") is not None and rank is not None:
            sim_by_phase_rank[span["name"]][rank] += float(span["sim_dur"])
        if rank is None or rank == 0:
            wall_by_phase[span["name"]] += float(span.get("wall_dur") or 0.0)
    out: dict[str, dict[str, float | None]] = {}
    for phase in _PHASE_ROWS:
        ranks = sim_by_phase_rank.get(phase)
        out[phase] = {
            "sim": max(ranks.values()) if ranks else None,
            "wall": wall_by_phase.get(phase),
        }
    return out


def rank_load(records: Iterable[dict]) -> dict[int, dict[str, int]]:
    """Per-rank load: ``{rank: {"moves", "collectives", "recv_bytes"}}``."""
    load: dict[int, dict[str, int]] = defaultdict(
        lambda: {"moves": 0, "collectives": 0, "recv_bytes": 0}
    )
    for span in _spans(records):
        rank = span.get("rank")
        if rank is None:
            continue
        attrs = span.get("attrs") or {}
        if span["name"] == "lp.iteration":
            load[rank]["moves"] += int(attrs.get("moved") or 0)
        elif span["name"].startswith("comm."):
            load[rank]["collectives"] += 1
            load[rank]["recv_bytes"] += int(attrs.get("bytes") or 0)
    return {r: load[r] for r in sorted(load)}


# ---------------------------------------------------------------------------
# Run summary (the machine-readable run.json)
# ---------------------------------------------------------------------------

def _convergence(lp_spans: list[dict]) -> list[dict[str, Any]]:
    """LP trajectory: one point per (rank 0 / rank-less) lp.iteration span."""
    keys = ("mode", "iteration", "sweep", "chunk_size", "loop", "moved",
            "global_changed", "frontier_frac")
    return [
        {key: (span.get("attrs") or {}).get(key) for key in keys}
        for span in lp_spans if span.get("rank") in (None, 0)
    ]


def build_run_summary(records: Iterable[dict]) -> dict[str, Any]:
    """Assemble the versioned ``run.json`` document for one trace.

    Reads span and event records only: a legacy trailing ``metrics``
    line of an old ``.events.jsonl`` is ignored.
    """
    records = list(records)
    extent = _wall_extent(records)
    load = rank_load(records)
    move_values = [row["moves"] for row in load.values()]
    move_mean = sum(move_values) / len(move_values) if move_values else 0.0
    path = critical_path(records)
    # run.json keeps only the heaviest segments; the full alternating
    # chain is recomputable from the trace, and truncation is declared.
    top_segments = sorted(path["segments"], key=lambda s: -s["dur"])[:20]
    levels = _level_rows(records)
    lp_spans = _spans(records, "lp.iteration")
    lp_attrs = [span.get("attrs") or {} for span in lp_spans]
    # The verdict on the returned partition; a trace without one (a bare
    # pipeline call, an old file) still knows its last refined cut.
    verdicts = _events(records, "partition.quality")
    verdict = (verdicts[-1].get("attrs") or {}) if verdicts else {}
    heaviest, lmax = verdict.get("max_block_weight"), verdict.get("lmax")
    return {
        "schema": RUN_SUMMARY_SCHEMA,
        "header": trace_header(records),
        "wall_time_s": (extent[1] - extent[0]) if extent else 0.0,
        "quality": {
            "cut": verdict.get("cut", levels[-1]["cut_refined"] if levels else None),
            "imbalance": verdict.get("imbalance"),
            "max_block_weight": heaviest,
            "lmax": lmax,
            "feasible": (
                heaviest <= lmax if heaviest is not None and lmax is not None
                else None
            ),
            "lp_move_imbalance": (
                max(move_values) / move_mean if move_mean > 0 else None
            ),
        },
        "levels": levels,
        "phases": phase_times(records),
        "counts": {
            "coarsen.levels": len(_events(records, "coarsen.level")),
            "ea.rounds": len(_spans(records, "ea.round")),
            "isolated_nodes": int(verdict.get("isolated_nodes", 0)),
            "lp.iterations": len(lp_spans),
            "lp.moved_nodes": sum(int(a.get("moved") or 0) for a in lp_attrs),
        },
        "convergence": _convergence(lp_spans),
        "comm": {
            "matrix": comm_matrix(records),
            "collectives": sum(row["collectives"] for row in load.values()),
            "recv_bytes": sum(row["recv_bytes"] for row in load.values()),
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
        # Cumulative graph-store disk traffic (out-of-core runs), as the
        # last LP iteration saw it; empty for resident stores.
        "store": next(
            (a["store"] for a in reversed(lp_attrs) if a.get("store")), {}
        ),
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
                      ("memory", dict), ("convergence", list),
                      ("levels", list), ("counts", dict)):
        if not isinstance(doc[key], want):
            errors.append(f"{key} must be a {want.__name__}")
    if errors:
        return errors
    header = doc["header"] or {}
    if header.get("lp_kernel") not in (None, "native"):
        errors.append("header.lp_kernel must be 'native' (the one kernel)")
    feasible = doc["quality"].get("feasible")
    if feasible is not None and not isinstance(feasible, bool):
        errors.append("quality.feasible must be a boolean or null")
    for key in ("collectives", "recv_bytes"):
        if not isinstance(doc["comm"].get(key), int):
            errors.append(f"comm.{key} must be an integer")
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
# Human rendering (of the summary, so every analysis runs once)
# ---------------------------------------------------------------------------

def _format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any, pattern: str = "{:,}") -> str:
    return "-" if value is None else pattern.format(value)


def _bytes_fmt(n: int | float | None) -> str:
    if n is None:
        return "-"
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:,.0f}{unit}" if unit == "B" else f"{n:,.1f}{unit}"
        n /= 1024.0
    return f"{n:,.1f}GiB"


def _header_block(header: dict) -> str:
    affinity = header.get("cpu_affinity")
    cores = affinity or header.get("cpu_cores")
    p = header.get("p")
    parts = [
        f"backend {header.get('backend') or '-'}",
        f"p {p or '-'}",
        f"cpu_cores {header.get('cpu_cores') or '?'}"
        + (f" (affinity {affinity})" if affinity is not None else ""),
        f"python {header.get('python') or '?'}",
        f"numpy {header.get('numpy') or '-'}",
        f"lp_kernel {header.get('lp_kernel') or '-'}",
    ]
    lines = ["trace header: " + "  ".join(parts)]
    # A p>1 process-backend run on one core cannot show wall-clock
    # speedup — the recorded ratios measure communication/scheduling overhead —
    # so every reader of such a trace gets told explicitly.
    if cores == 1 and p and p > 1 and header.get("backend") == "process":
        lines.append(
            f"WARNING: p={p} process-backend run recorded on a single-core "
            "host; wall-clock ratios measure communication overhead, not parallel "
            "speedup (use the sim clock, or re-record on a multi-core host)"
        )
    return "\n".join(lines)


def _levels_table(levels: list[dict[str, Any]]) -> str:
    """Level sizes / shrink factors / cuts, one block per V-cycle."""
    if not levels:
        return "per-level table: no pipeline events in this trace"
    by_cycle: dict[Any, list[dict]] = defaultdict(list)
    for row in levels:
        by_cycle[row["cycle"]].append(row)
    blocks = []
    for cycle, rows in by_cycle.items():
        cells = [
            [
                f"{row['level']}" + (" (coarsest)" if row is rows[0]
                                     else " (input)" if row["level"] == 0 else ""),
                _fmt(row["nodes"]),
                _fmt(row["edges"]),
                _fmt(row["shrink"], "{:.2f}x"),
                _fmt(row["cut_projected"]),
                _fmt(row["cut_refined"]),
            ]
            for row in rows
        ]
        blocks.append(_format_table(
            f"V-cycle {cycle}" if cycle is not None else "multilevel run",
            ["level", "nodes", "edges", "shrink", "cut(proj)", "cut(refined)"],
            cells,
        ))
    return "\n\n".join(blocks)


def _phases_table(times: dict[str, dict[str, float | None]]) -> str:
    """Simulated/wall seconds per pipeline phase, summed over cycles."""
    if all(v["sim"] is None and v["wall"] is None for v in times.values()):
        return "per-phase table: no phase spans in this trace"
    total_sim = sum(v["sim"] for v in times.values() if v["sim"] is not None) or None
    rows = []
    for phase in times:
        sim = times[phase]["sim"]
        share = (
            f"{100.0 * sim / total_sim:.1f}%"
            if sim is not None and total_sim
            else "-"
        )
        rows.append([
            f"  {phase}" if phase in KAFFPA_STEPS else phase,
            _fmt(sim, "{:.6f}"),
            share,
            _fmt(times[phase]["wall"], "{:.3f}"),
        ])
    return _format_table(
        "per-phase time (sim = max over ranks, seconds)",
        ["phase", "sim[s]", "sim share", "wall[s]"],
        rows,
    )


def _load_table(load: dict[str, dict[str, int]], move_imbalance: float | None) -> str:
    """Per-rank LP moves and collective traffic, with max/mean imbalance."""
    if not load:
        return "load table: no rank-attributed spans in this trace"
    rows = [
        [rank, f"{row['moves']:,}", f"{row['collectives']:,}",
         f"{row['recv_bytes']:,}"]
        for rank, row in load.items()
    ]
    table = _format_table(
        "per-rank load",
        ["rank", "lp moves", "collectives", "recv bytes"],
        rows,
    )
    if move_imbalance is not None:
        table += f"\nLP move imbalance (max/mean): {move_imbalance:.2f}"
    return table


def _critical_path_table(path: dict[str, Any]) -> str:
    if not path["segments_total"]:
        return ("critical path: no rank-attributed collectives in this trace "
                "(sequential run?)")
    lines = [
        "critical path (wall clock, collectives as synchronization edges)",
        f"  total {path['total_s'] * 1e3:,.2f} ms = "
        f"compute {path['compute_s'] * 1e3:,.2f} ms + "
        f"comm {path['comm_s'] * 1e3:,.2f} ms "
        f"over {path['collectives']} collectives, ranks {path['ranks']}"
        + (" [TRUNCATED: unequal collective counts]" if path["truncated"] else ""),
    ]
    rows = []
    for seg in path["top_segments"][:10]:
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


def render_analysis(summary: dict[str, Any]) -> str:
    """The full human-readable ``repro analyze`` output for one run summary."""
    sections = []
    if summary["header"] is not None:
        sections.append(_header_block(summary["header"]))
    quality = summary["quality"]
    if quality["feasible"] is False:
        sections.append(
            "WARNING: infeasible partition: max block weight "
            f"{quality['max_block_weight']:,} exceeds Lmax {quality['lmax']:,} "
            f"(imbalance {quality['imbalance']:.4f})"
        )
    counts = {
        **summary["counts"],
        "comm.collectives": summary["comm"]["collectives"],
        "comm.recv_bytes": summary["comm"]["recv_bytes"],
    }
    sections += [
        _levels_table(summary["levels"]),
        _phases_table(summary["phases"]),
        _load_table(summary["comm"]["per_rank"], quality["lp_move_imbalance"]),
        _format_table("counts", ["name", "value"],
                      [[name, f"{counts[name]:,}"] for name in sorted(counts)]),
        _critical_path_table(summary["critical_path"]),
        _blame_table(summary["blame"]),
        _comm_matrix_table(summary["comm"]["matrix"]),
        _memory_table(summary["memory"]),
    ]
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
