"""The SPMD divergence corpus, run: the order check names every bad
pattern and passes every good one.

Each pattern is a small SPMD program shape — a collective under a rank
guard, an early return ahead of one, a helper that hides one, a
rank-valued property guarding one — and its correct twin.  Every
pattern runs on p = 3 thread ranks, then a trailing ``comm.barrier()``,
as a real program goes on to its next collective.

* a bad pattern parts the ranks' collective streams: every rank raises
  :class:`CollectiveMismatchError`, whose call-site tags name the line
  of the collective that only some ranks reached (for a helper, its
  line inside the helper or the helper's own call, the tag's two frames);
* a good pattern runs clean, every rank having run the same number of
  collectives — the check has no false positive on rank-dependent
  payloads, rank-guarded local work, guarded point-to-point sends or a
  return with no collective after it.

A collective guarded by ``comm.size > 1`` runs on every rank of any
p >= 2 and alone at p = 1, so it is no divergence and has no row.
"""

from __future__ import annotations

import inspect
import os
import re

import numpy as np
import pytest

from repro.dist import CollectiveMismatchError, run_spmd
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.generators.mesh import grid_2d

SIZE = 3
GRAPH = grid_2d(4, 6)

# ---------------------------------------------------------------------------
# helpers whose collectives are out of sight at the call
# ---------------------------------------------------------------------------


def sync_labels(dgraph, comm, labels):
    comm.work(len(labels))
    dgraph.halo_exchange(comm, labels)
    return labels


def global_quality(comm, cut):
    return comm.allreduce(cut)


def summarize(labels):
    return len(labels)


class LabelStore:
    def __init__(self, labels):
        self.labels = labels

    def flush(self, comm):
        return comm.allgather(list(self.labels))


class Backend:
    """``emits_events`` and ``is_root()`` are rank-valued; ``traced``
    and ``is_big`` are not."""

    def __init__(self, comm, traced=True):
        self.comm = comm
        self.traced = traced

    @property
    def emits_events(self):
        return self.comm.rank == 0

    def is_root(self):
        root = self.comm.rank == 0
        return root

    def is_big(self, labels):
        return len(labels) > 0


class Level:
    """A rank-local object built from the rank, halved by ``coarsen``."""

    def __init__(self, rank, n_global=8):
        self.rank = rank
        self.n_local = rank + 1
        self.n_global = n_global

    def coarsen(self, total):
        return Level(self.rank, self.n_global // 2)


def _dgraph(comm):
    return DistGraph.from_global(GRAPH, balanced_vtxdist(GRAPH.num_nodes, comm.size), comm.rank)


def _labels(dgraph):
    return np.arange(dgraph.n_total, dtype=np.int64)


# ---------------------------------------------------------------------------
# bad patterns: some ranks reach a collective the others skip
# ---------------------------------------------------------------------------


def guarded_collective(comm, data):
    if comm.rank == 0:
        comm.allgather(data)


def guarded_else_branch(comm):
    if comm.rank % 2 == 0:
        total = 1
    else:
        comm.barrier()
        total = 2
    return total


def early_return(comm, data):
    if comm.rank != 0:
        return None
    return comm.allreduce(data)


def rank_bounded_loop(comm):
    for _ in range(comm.rank):
        comm.barrier()


def tainted_guard(comm):
    me = comm.rank + 1
    while me > 1:
        comm.exscan(1)
        me -= 1


def conditional_expression_collective(comm):
    return comm.bcast(1) if comm.rank == 0 else None


def rank_guarded_helper(dgraph, comm, labels):
    if comm.rank == 0:
        sync_labels(dgraph, comm, labels)
    return labels


def early_return_past_helper(dgraph, comm, labels):
    if comm.rank != 0:
        return None
    return sync_labels(dgraph, comm, labels)


def guarded_method_dispatch(store, comm):
    if comm.rank == 0:
        store.flush(comm)
    return store


def guarded_scoring(comm, cut):
    score = 0
    if comm.rank % 2 == 0:
        score = global_quality(comm, cut)
    return score


def guarded_by_rank_valued_property(backend, comm, cut):
    if backend.emits_events:
        cut = global_quality(comm, cut)
    return cut


def guarded_by_rank_valued_method(backend, comm, labels):
    if not backend.is_root():
        return None
    return comm.allgather(labels)


# ---------------------------------------------------------------------------
# good patterns: the call is unconditional, only data or local work varies
# ---------------------------------------------------------------------------


def unconditional(comm, data):
    return comm.allgather(data)


def rank_dependent_payload(comm, value, root=0):
    return comm.bcast(value if comm.rank == root else None, root=root)


def rank_local_compute(comm):
    if comm.rank == 0:
        extra = sum(range(10))
    else:
        extra = 0
    comm.barrier()
    return extra


def guarded_buffered_sends(comm, payload):
    # send_buffered is point-to-point; only the exchange() that moves
    # the data is a collective
    if comm.rank % 2 == 0:
        comm.send_buffered((comm.rank + 1) % comm.size, payload)
    return comm.exchange()


def data_dependent_guard(comm, items):
    if len(items) > 0:
        comm.barrier()


def rank_derived_data_guard(comm, factory):
    level = factory(comm.rank)
    while level.n_global > 1:
        level = level.coarsen(comm.allreduce(level.n_local))
    return level


def numpy_size_guard(comm, changed):
    if changed.size == 0:
        comm.barrier()


def late_return_after_collectives(comm, data):
    gathered = comm.allgather(data)
    if comm.rank == 0:
        return gathered
    return None


def synced(dgraph, comm, labels):
    labels = sync_labels(dgraph, comm, labels)
    if comm.rank == 0:
        summarize(labels)
    return labels


def scored(comm, cut):
    total = global_quality(comm, cut)
    if comm.rank == 0:
        total = -total
    return total


def guarded_tail(comm, labels):
    if comm.rank != 0:
        return None
    return summarize(labels)


def event_on_one_rank(backend, comm, cut):
    total = global_quality(comm, cut)
    if backend.emits_events:
        summarize([total])
    return total


def uniform_attribute_guard(backend, comm, cut):
    if backend.traced:
        cut = global_quality(comm, cut)
    return cut


def method_with_arguments_is_data(backend, comm, labels):
    if backend.is_big(labels):
        comm.barrier()


# ---------------------------------------------------------------------------
# the runs
# ---------------------------------------------------------------------------

#: (pattern, its call on one rank, the function and text of the line
#: the error names)
BAD = [
    (guarded_collective, lambda comm: guarded_collective(comm, comm.rank),
     guarded_collective, "comm.allgather(data)"),
    (guarded_else_branch, guarded_else_branch, guarded_else_branch, "comm.barrier()"),
    (early_return, lambda comm: early_return(comm, comm.rank),
     early_return, "comm.allreduce(data)"),
    (rank_bounded_loop, rank_bounded_loop, rank_bounded_loop, "comm.barrier()"),
    (tainted_guard, tainted_guard, tainted_guard, "comm.exscan(1)"),
    (conditional_expression_collective, conditional_expression_collective,
     conditional_expression_collective, "comm.bcast(1)"),
    (rank_guarded_helper,
     lambda comm: rank_guarded_helper(d := _dgraph(comm), comm, _labels(d)),
     sync_labels, "dgraph.halo_exchange(comm, labels)"),
    (early_return_past_helper,
     lambda comm: early_return_past_helper(d := _dgraph(comm), comm, _labels(d)),
     sync_labels, "dgraph.halo_exchange(comm, labels)"),
    (guarded_method_dispatch,
     lambda comm: guarded_method_dispatch(LabelStore([comm.rank]), comm),
     LabelStore.flush, "comm.allgather(list(self.labels))"),
    (guarded_scoring, lambda comm: guarded_scoring(comm, comm.rank),
     global_quality, "comm.allreduce(cut)"),
    (guarded_by_rank_valued_property,
     lambda comm: guarded_by_rank_valued_property(Backend(comm), comm, comm.rank),
     global_quality, "comm.allreduce(cut)"),
    (guarded_by_rank_valued_method,
     lambda comm: guarded_by_rank_valued_method(Backend(comm), comm, [comm.rank]),
     guarded_by_rank_valued_method, "comm.allgather(labels)"),
]

#: (pattern, its call on one rank)
GOOD = [
    (unconditional, lambda comm: unconditional(comm, comm.rank)),
    (rank_dependent_payload, lambda comm: rank_dependent_payload(comm, comm.rank)),
    (rank_local_compute, rank_local_compute),
    (guarded_buffered_sends, lambda comm: guarded_buffered_sends(comm, comm.rank)),
    (data_dependent_guard, lambda comm: data_dependent_guard(comm, [1, 2])),
    (rank_derived_data_guard, lambda comm: rank_derived_data_guard(comm, Level)),
    (numpy_size_guard, lambda comm: numpy_size_guard(comm, np.zeros(0))),
    (late_return_after_collectives,
     lambda comm: late_return_after_collectives(comm, comm.rank)),
    (synced, lambda comm: synced(d := _dgraph(comm), comm, _labels(d))),
    (scored, lambda comm: scored(comm, comm.rank)),
    (guarded_tail, lambda comm: guarded_tail(comm, [comm.rank])),
    (event_on_one_rank, lambda comm: event_on_one_rank(Backend(comm), comm, comm.rank)),
    (uniform_attribute_guard,
     lambda comm: uniform_attribute_guard(Backend(comm), comm, comm.rank)),
    (method_with_arguments_is_data,
     lambda comm: method_with_arguments_is_data(Backend(comm), comm, [comm.rank])),
]


def _then_barrier(comm, call):
    call(comm)
    comm.barrier()


def _line_in(function, text: str) -> int:
    """The line of ``function``'s source that holds ``text``, once."""
    source, first = inspect.getsourcelines(function)
    lines = [first + i for i, line in enumerate(source) if text in line]
    assert len(lines) == 1, f"{text!r} is on lines {lines} of {function.__qualname__}"
    return lines[0]


@pytest.mark.parametrize(("pattern", "call", "where", "text"), BAD,
                         ids=[row[0].__name__ for row in BAD])
def test_divergent_pattern_is_named(pattern, call, where, text):
    with pytest.raises(CollectiveMismatchError) as caught:
        run_spmd(SIZE, _then_barrier, call, timeout=30)
    site = f"{os.path.basename(__file__)}:{_line_in(where, text)} in {where.__name__}"
    assert re.search(rf"rank \d: \S+ #\d+ at ({re.escape(site)}|.* <- {re.escape(site)})",
                     str(caught.value)), str(caught.value)
    assert caught.value.divergent_ranks


@pytest.mark.parametrize(("pattern", "call"), GOOD, ids=[row[0].__name__ for row in GOOD])
def test_spmd_pattern_runs_clean(pattern, call):
    result = run_spmd(SIZE, _then_barrier, call, timeout=30)
    assert len({stats.collectives for stats in result.stats}) == 1
