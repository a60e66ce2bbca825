"""How fast the host runs right now, sampled while an op is measured.

The benchmark's host is a small VM whose speed is not its own: for
seconds to minutes at a time the same Python runs 1.4x or 3x slower
(a busy hyperthread sibling, a descheduled vCPU; guest CPU time moves
with wall time and no steal is reported).  Ten runs of one op then
spread by 20-40 % between quartiles, and medians taken a quarter of an
hour apart differ by more than any bound the benchmark could set.

So every timed interval is divided by the slowdown the host showed
*during that interval*: a thread runs a fixed quantum of pure Python
every 50 ms and the mean quantum over the interval, relative to the
quantum of the undisturbed host, is the slowdown.  The reported seconds
are thus seconds of the undisturbed host; the raw ones are kept beside
them.  The thread holds the GIL for 0.7 ms in 50, which costs the
measured op about 1 %.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: the quantum below on this repository's benchmark host with nothing
#: else running (a quiet minute; it read 0.00060-0.00064).  On another
#: host every reported time is scaled by one constant, which no
#: comparison of two commits on that host notices.
REFERENCE_QUANTUM_S = 0.00061
PERIOD_S = 0.05


def quantum() -> int:
    total = 0
    for i in range(20000):
        total += i
    return total


class SpeedProbe(threading.Thread):
    """Samples the duration of :func:`quantum` every ``PERIOD_S`` until stopped.

    Create it on the thread that runs the ops.  Before each sample the
    probe moves itself to the CPU that thread last ran on: left to the
    scheduler it wakes on the idle vCPU and reports the weather there
    (a run of steady 2.5 s ops came out as 1.1-2.5 s that way).
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._halt = threading.Event()
        self._followed = f"/proc/self/task/{threading.get_native_id()}/stat"

    def _followed_cpu(self) -> int:
        with open(self._followed) as handle:
            # field 39 of proc(5) stat; the command name before it may hold spaces
            return int(handle.read().rsplit(")", 1)[1].split()[36])

    def run(self) -> None:
        while True:
            os.sched_setaffinity(threading.get_native_id(), {self._followed_cpu()})
            start = time.perf_counter()
            quantum()
            self.samples.append((start, time.perf_counter() - start))
            if self._halt.wait(PERIOD_S):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean quantum sampled in ``[start, end]`` over the reference quantum.

        An interval shorter than the period borrows the nearest sample.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.fmean(inside) / REFERENCE_QUANTUM_S
