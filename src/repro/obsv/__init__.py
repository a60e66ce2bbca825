"""Observability for the multilevel pipeline: one trace, one reader.

A traced run records spans and events (:mod:`~repro.obsv.tracer`),
exports them (:mod:`~repro.obsv.export`), and :mod:`~repro.obsv.analyze`
turns the stream into ``run.json`` and the ``repro analyze`` tables.

Stdlib-only by design — :mod:`repro.dist.comm` imports the tracer, so
this package must sit below every other repro subsystem in the import
graph.  See ``docs/observability.md`` for the event schema and CLI.
"""

from .tracer import TRACER, Span, Tracer, host_header, trace_session
from .export import (
    events_path,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .analyze import (
    RUN_SUMMARY_SCHEMA,
    build_run_summary,
    comm_matrix,
    critical_path,
    phase_times,
    rank_load,
    rank_memory,
    render_analysis,
    straggler_blame,
    trace_header,
    validate_run_summary,
    write_run_summary,
)

__all__ = [
    "RUN_SUMMARY_SCHEMA",
    "Span",
    "TRACER",
    "Tracer",
    "build_run_summary",
    "comm_matrix",
    "critical_path",
    "events_path",
    "host_header",
    "phase_times",
    "rank_load",
    "rank_memory",
    "read_jsonl",
    "render_analysis",
    "straggler_blame",
    "to_chrome_trace",
    "trace_header",
    "trace_session",
    "validate_run_summary",
    "write_chrome_trace",
    "write_jsonl",
    "write_run_summary",
]
