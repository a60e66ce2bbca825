"""Observability for the multilevel pipeline: tracing, metrics, reports.

Stdlib-only by design — :mod:`repro.dist.comm` imports the tracer, so
this package must sit below every other repro subsystem in the import
graph.  See ``docs/observability.md`` for the event schema and CLI.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import TRACER, Span, Tracer, host_header, trace_session
from .export import (
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .report import (
    header_summary,
    load_imbalance_table,
    per_level_table,
    per_phase_table,
    phase_times,
    rank_load,
    render_report,
    trace_header,
)
from .analyze import (
    RUN_SUMMARY_SCHEMA,
    build_run_summary,
    comm_matrix,
    compare_run_summaries,
    critical_path,
    rank_memory,
    render_analysis,
    straggler_blame,
    validate_run_summary,
    write_run_summary,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RUN_SUMMARY_SCHEMA",
    "Span",
    "TRACER",
    "Tracer",
    "build_run_summary",
    "comm_matrix",
    "compare_run_summaries",
    "critical_path",
    "header_summary",
    "host_header",
    "load_imbalance_table",
    "per_level_table",
    "per_phase_table",
    "phase_times",
    "rank_load",
    "rank_memory",
    "read_jsonl",
    "render_analysis",
    "render_report",
    "straggler_blame",
    "to_chrome_trace",
    "trace_header",
    "trace_session",
    "validate_run_summary",
    "write_chrome_trace",
    "write_jsonl",
    "write_run_summary",
]
