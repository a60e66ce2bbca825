"""Machine, time, and memory models for the simulated cluster."""

from .machine import MACHINE_A, MACHINE_B, SERIAL, Machine
from .memory import MemoryBudget, OutOfMemoryError, estimate_graph_bytes
from .rss import memory_sample

__all__ = [
    "MACHINE_A",
    "MACHINE_B",
    "SERIAL",
    "Machine",
    "MemoryBudget",
    "OutOfMemoryError",
    "estimate_graph_bytes",
    "memory_sample",
]
