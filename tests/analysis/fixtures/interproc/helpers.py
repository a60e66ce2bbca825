"""Helpers whose collective footprints only the whole-program pass sees.

Nothing in this module is a violation on its own: every collective runs
unconditionally.  The divergence is seeded in ``driver_bad.py``, which
calls these helpers under rank-dependent control flow.
"""


def sync_labels(dgraph, comm, labels):
    comm.work(len(labels))
    return dgraph.halo_exchange(comm, labels)


def global_quality(comm, cut):
    return comm.allreduce(cut)


class LabelStore:
    def __init__(self, labels):
        self.labels = labels

    def flush(self, comm):
        return comm.allgather(list(self.labels))


class Backend:
    """``emits_events`` is true on exactly one rank, behind a property."""

    def __init__(self, comm):
        self.comm = comm

    @property
    def emits_events(self):
        return self.comm.rank == 0

    def is_root(self):
        root = self.comm.rank == 0
        return root
