"""Real memory telemetry: resident-set sampling.

:mod:`repro.perf.memory` is the *model* side of the paper's memory story
— simulated budgets scaled to paper-size instances.  This module is the
*measurement* side: what the partitioner process actually holds, read
from ``/proc/self/status`` (``VmRSS``/``VmHWM``) with a
``resource.getrusage`` fallback for hosts without procfs.  The obsv
layer attaches one sample per rank to a ``mem.rank`` event at the end of
a traced run, and ``repro analyze`` rolls them up into the run summary —
the measured counterpart of the ROADMAP's "measured peak RSS" item
(arXiv:1404.4887's out-of-core claims are argued in exactly these
units).

Everything here is stdlib-only and cheap (one small procfs read per
sample, ~tens of microseconds), and samples are only taken behind
``TRACER.enabled`` guards.
"""

from __future__ import annotations

import sys

__all__ = ["memory_sample", "read_vm_status"]

#: procfs status file of the calling process (patchable in tests)
_STATUS_PATH = "/proc/self/status"

#: the two fields we sample: resident set now, and its high-water mark
_VM_FIELDS = (b"VmRSS:", b"VmHWM:")


def read_vm_status(path: str = _STATUS_PATH) -> dict[str, int]:
    """``{"VmRSS": bytes, "VmHWM": bytes}`` from procfs; ``{}`` off-Linux.

    The kernel reports the fields in kB; values are converted to bytes
    so every memory number in the trace shares one unit.
    """
    out: dict[str, int] = {}
    try:
        with open(path, "rb") as fh:
            for line in fh:
                for field in _VM_FIELDS:
                    if line.startswith(field):
                        out[field[:-1].decode()] = int(line.split()[1]) * 1024
            return out
    except (OSError, ValueError, IndexError):
        return {}


def _rusage_peak_bytes() -> int:
    """Peak RSS via ``getrusage`` (kB on Linux, bytes on macOS); 0 if absent."""
    try:
        import resource
    except ImportError:  # non-POSIX host: no fallback available
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def memory_sample() -> dict[str, int]:
    """One sample of this process's memory: current and peak RSS in bytes.

    The attribute names are those of the ``mem.rank`` event, so the dict
    is splatted straight into it.
    """
    status = read_vm_status()
    peak = status.get("VmHWM") or _rusage_peak_bytes()
    return {
        "rss_bytes": status.get("VmRSS", 0),
        "peak_rss_bytes": int(peak),
    }
