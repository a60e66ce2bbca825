"""Bench-side spans around the program's public entry points.

The program is not edited: for the duration of the trace child the
wrappers below replace public names of ``repro`` (a name in a module's
``__all__``, or a public method of a class that is) with versions that
record a span per call.  A span is ``{name, start, end, parent, op,
rank}`` plus optional counts taken at the same boundary; spans are kept
in memory and written out when the op ends.

On the process backend the layers run in the workers, so
:func:`traced_program` — a module-level function, importable by the
spawned ranks — installs the same wrappers there and ships each rank's
spans back with its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: span name of a lane's root: the whole op, or one rank's program
OP_ROOT = "op"
RANK_ROOT = "rank.program"
#: main-lane span around ``run_spmd_processes``; the rank lanes hang below it
SPMD_CALL = "dist.spmd_call"


class Recorder:
    """In-memory span log of one process (one *lane*)."""

    def __init__(self, op: str, rank: int | None = None) -> None:
        self.op = op
        self.rank = rank
        self.spans: list[dict] = []
        self._open: list[int] = []

    @property
    def in_op(self) -> bool:
        """Whether a root span is open, i.e. the program is being measured."""
        return bool(self._open)

    @contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op, "rank": self.rank, **counts,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


# Counts taken at a hook's boundary.  LP arcs are *computed*: the arcs
# of the level times the configured iterations, not the arcs a
# converging sweep actually visited.
def _coarsen_arcs(backend, *_):
    return {"arcs": int(backend.current.num_arcs) * backend.config.coarsening_iterations}


def _coarsest_refine_arcs(backend, *_):
    return {"arcs": int(backend.current.num_arcs) * backend.config.refinement_iterations}


def _refine_arcs(backend, level, *_):
    return {"arcs": int(level.fine.num_arcs) * backend.config.refinement_iterations}


def _coarsest_local(backend):
    return {"nodes": int(backend.current.num_nodes)}


def _coarsest_global(backend):
    return {"nodes": int(backend.current.n_global)}


#: (module, class, method, span name, counts) — the V-cycle backend hooks
#: of both pipelines, the rank's graph slice, and the collectives that
#: reach ``_collect`` directly (the composite ones nest inside them)
METHODS = (
    ("repro.core.multilevel", "LocalVcycleBackend", "cluster", "engine.lp_coarsen", _coarsen_arcs),
    ("repro.core.multilevel", "LocalVcycleBackend", "contract", "graph.contract", None),
    ("repro.core.multilevel", "LocalVcycleBackend", "initial_partition", "kaffpa.initial", _coarsest_local),
    ("repro.core.multilevel", "LocalVcycleBackend", "coarsest_refine", "engine.lp_refine", _coarsest_refine_arcs),
    ("repro.core.multilevel", "LocalVcycleBackend", "refine_level", "engine.lp_refine", _refine_arcs),
    ("repro.dist.dist_partitioner", "SpmdVcycleBackend", "cluster", "engine.lp_coarsen", _coarsen_arcs),
    ("repro.dist.dist_partitioner", "SpmdVcycleBackend", "contract", "dist.contract", None),
    ("repro.dist.dist_partitioner", "SpmdVcycleBackend", "initial_partition", "evolutionary.initial", _coarsest_global),
    ("repro.dist.dist_partitioner", "SpmdVcycleBackend", "refine_level", "engine.lp_refine", _refine_arcs),
    ("repro.dist.dgraph", "DistGraph", "from_global", "dist.distribute", None),
    *(("repro.dist.comm", "CollectiveOps", op, "dist.comm", None)
      for op in ("barrier", "allgather", "allreduce", "bcast", "exscan", "alltoall")),
)

#: (module, function, span name)
FUNCTIONS = (
    ("repro.graph.io", "load_npz", "graph.io.load"),
    ("repro.graph.io", "read_metis", "graph.io.load"),
    ("repro.graph.io", "open_sharded", "graph.io.load"),
    ("repro.engine.sclp", "run_sclp", "engine.lp_oocore"),
    ("repro.metrics.quality", "evaluate_partition", "metrics.validate"),
    ("repro.metrics.quality", "evaluate_partition_streaming", "metrics.validate"),
    ("repro.graph.validation", "check_partition", "metrics.validate"),
)


def _require_public(module, name: str) -> None:
    if name not in module.__all__:
        raise RuntimeError(f"{module.__name__}.{name} is not a public name")


def _wrap(recorder: Recorder, func, span_name: str, counts):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.in_op:  # the benchmark's own verification, after the op
            return func(*args, **kwargs)
        with recorder.span(span_name, **(counts(*args) if counts else {})):
            return func(*args, **kwargs)
    return wrapper


def install(recorder: Recorder, flat_lp: bool = False) -> None:
    """Replace the public entry points with recording versions.

    ``run_sclp`` is the whole LP layer of the flat out-of-core path but
    sits *inside* the LP hooks of the multilevel ones, so it is wrapped
    only when the op takes the flat path (``flat_lp``).  The process
    exits when the traced op is done; nothing is ever restored.
    """
    for mod_name, cls_name, method, span_name, counts in METHODS:
        module = importlib.import_module(mod_name)
        _require_public(module, cls_name)
        cls = getattr(module, cls_name)
        raw = cls.__dict__.get(method)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(recorder, raw.__func__, span_name, counts))
        else:
            wrapped = _wrap(recorder, getattr(cls, method), span_name, counts)
        setattr(cls, method, wrapped)
    for mod_name, func_name, span_name in FUNCTIONS:
        if func_name == "run_sclp" and not flat_lp:
            continue
        module = importlib.import_module(mod_name)
        _require_public(module, func_name)
        original = getattr(module, func_name)
        wrapped = _wrap(recorder, original, span_name, None)
        # Callers bound the public function by name at import time
        # (``from .graph.validation import check_partition``): rebind it
        # wherever the package holds that very object.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                vars(other).get(func_name) is original
            ):
                setattr(other, func_name, wrapped)


def traced_program(comm, graph, config, seed, op: str):
    """``parhip_program`` with this rank's spans attached to its result."""
    from repro.dist.dist_partitioner import parhip_program

    recorder = Recorder(op, rank=comm.rank)
    install(recorder)
    with recorder.span(RANK_ROOT):
        value = parhip_program(comm, graph, config, seed)
    return value, recorder.spans


def merge_lanes(main: list[dict], rank_lanes: list[list[dict]], under: int | None) -> list[dict]:
    """One span list; rank lanes hang below the main-lane span ``under``.

    ``parent`` becomes an index into the merged list, which is also the
    line number of the span in the written ``.spans.jsonl``.
    """
    merged = [dict(span) for span in main]
    for lane in rank_lanes:
        offset = len(merged)
        for span in lane:
            parent = span["parent"]
            merged.append({**span, "parent": under if parent is None else parent + offset})
    return merged


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus its child spans in the same lane."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None and spans[parent]["rank"] == span["rank"]:
            own[parent] -= span["end"] - span["start"]
    return own
