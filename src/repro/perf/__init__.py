"""Machine, time, and memory models for the simulated cluster."""

from .machine import MACHINE_A, MACHINE_B, SERIAL, Machine
from .memory import MemoryBudget, OutOfMemoryError, estimate_graph_bytes
from .rss import current_rss_bytes, memory_probe, memory_sample, peak_rss_bytes

__all__ = [
    "MACHINE_A",
    "MACHINE_B",
    "SERIAL",
    "Machine",
    "MemoryBudget",
    "OutOfMemoryError",
    "current_rss_bytes",
    "estimate_graph_bytes",
    "memory_probe",
    "memory_sample",
    "peak_rss_bytes",
]
