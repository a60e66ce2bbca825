"""Drivers whose divergence is only visible through helper footprints.

Every marked line must be flagged; nothing else in this package may be.
"""

from .helpers import global_quality, sync_labels


def rank_guarded_helper(dgraph, comm, labels):
    if comm.rank == 0:
        sync_labels(dgraph, comm, labels)  # DIV: helper halo_exchanges
    return labels


def early_return_past_helper(dgraph, comm, labels):
    if comm.rank != 0:
        return None  # DIV: sync_labels below still has to run collectively
    return sync_labels(dgraph, comm, labels)


def guarded_method_dispatch(store, comm):
    if comm.rank == 0:
        store.flush(comm)  # DIV: dispatch-by-name reaches LabelStore.flush
    return store


def guarded_scoring(comm, cut):
    score = 0
    if comm.rank % 2 == 0:
        score = global_quality(comm, cut)  # DIV: helper allreduces
    return score


def guarded_by_rank_valued_property(backend, comm, cut):
    if backend.emits_events:
        cut = global_quality(comm, cut)  # DIV: the property returns rank == 0
    return cut


def guarded_by_rank_valued_method(backend, comm, labels):
    if not backend.is_root():
        return None  # DIV: zero-argument method returning a rank scalar
    return comm.allgather(labels)
