"""Collective helpers called unconditionally; rank-guarded code is local.

The whole-program pass must produce zero findings here: guarding *local*
work on the rank is the normal SPMD pattern, and an early return is fine
when no collectives follow it.
"""

from .helpers import global_quality, summarize, sync_labels


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
    # The shape of engine/vcycle.py: the collective is unconditional, the
    # rank-valued property guards only rank-local reporting.
    total = global_quality(comm, cut)
    if backend.emits_events:
        summarize([total])
    return total


def uniform_attribute_guard(backend, comm, cut):
    if backend.traced:  # a plain attribute, the same on every rank
        cut = global_quality(comm, cut)
    return cut


def method_with_arguments_is_data(backend, comm, labels):
    if backend.is_big(labels):  # taint stops at calls with arguments
        comm.barrier()
