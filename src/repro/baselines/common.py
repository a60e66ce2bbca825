"""Cost accounting for the baseline partitioners.

The baselines compute *real* partitions with the real algorithms; their
parallel wall-clock is derived from an explicit bulk-synchronous cost
model (documented per baseline) rather than from the thread-simulated
runtime — ParMetis's internals are not the paper's contribution, only its
behaviour is, and the behaviour is fully determined by the coarsening
trajectory, the per-level work, and the replication memory, all of which
the model captures.  Each baseline returns through the same exit as
ParHIP, :func:`repro.metrics.finish_partition`, with the ledger's seconds
as its ``sim_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.machine import Machine

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    """Accumulates the bulk-synchronous cost of a simulated parallel run."""

    machine: Machine
    num_pes: int
    seconds: float = field(default=0.0, init=False)

    def parallel_work(self, total_units: float, ghost_fraction: float = 0.05) -> None:
        """One superstep: work split across PEs plus halo traffic.

        ``ghost_fraction`` of the per-PE work volume crosses PE borders
        (8 bytes per crossing unit).
        """
        per_pe = total_units / self.num_pes
        self.seconds += self.machine.compute_time(per_pe)
        self.seconds += self.machine.message_time(
            num_messages=max(0, self.num_pes - 1) and 2,
            num_bytes=8.0 * ghost_fraction * per_pe,
        )

    def serial_work(self, units: float) -> None:
        """Work every PE performs redundantly (e.g. on a replicated graph)."""
        self.seconds += self.machine.compute_time(units)

    def collective(self, bytes_received: float = 64.0) -> None:
        self.seconds += self.machine.collective_time(self.num_pes, bytes_received)

    def collectives(self, count: int, bytes_received: float = 64.0) -> None:
        for _ in range(count):
            self.collective(bytes_received)
