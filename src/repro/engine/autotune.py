"""SCLP dispatch controller: sweep switching and chunk tuning.

The reason sweep choice is not a user-facing knob: a pinned ``full`` or
``frontier`` sweep is regime-specific (``BENCH_lp.json``: frontier is
~0.8x at three iterations where every node is active, ~1.3x once the
active set has collapsed), while the papers (arXiv:1404.4797,
arXiv:1402.3281) assume the active set shrinks geometrically.  The
controller *observes* that shrinkage and re-dispatches each iteration.

The controller in this module is deliberately pure decision logic — it
never communicates, never reads rank-local state, and never consults a
clock on its own.  The SCLP driver allreduces one small per-phase stats
vector through the backend hook
(:meth:`~repro.engine.backend.ExecutionBackend.reduce_scan_stats`, a
collective on the SPMD backends, the identity at p = 1) and feeds the
*global sums* to :meth:`AutotuneController.observe`; every rank
therefore holds the same controller state and reaches the same
(sweep, chunk) decision on every iteration by construction.  That is
the whole rank-divergence story: the only cross-rank input is the
reduction, which the SPMD self-lint verifies is called in uniform
collective order.

Two decisions are made per iteration:

* **Sweep mode** — ``full`` scans every node; ``frontier`` filters to
  the active set.  Entry (full -> frontier) triggers when the
  *upper-bound* estimate of the next active fraction drops below
  :data:`ENTRY_FRACTION`; exit
  (frontier -> full) when the *exact* active fraction rises to
  :data:`EXIT_FRACTION`.  The gap between the two thresholds is the
  hysteresis band that keeps the mode from flapping on noisy
  iterations.  The entry signal is an upper bound (movers contribute
  ``1 + degree``, counting every neighbour they could activate, plus
  the risky and inflow-capped counts), so entering is always sound:
  the true active fraction can only be smaller.
* **Chunk size** — the first :data:`len(CHUNK_PROBE_STEPS) <CHUNK_PROBE_STEPS>`
  iterations probe multiplicatively larger power-of-two chunk requests
  (x1, x2, x4 of the resolved base), then lock in the cheapest probe
  for the rest of the run.  The cost is a deterministic *work model* —
  per-arc cost with a fixed per-chunk dispatch overhead and a penalty
  per inflow-cancelled move — scored against the requested chunk and
  the global scan universe, both p-invariant quantities, so the locked
  chunk does not depend on rank count or wall noise.

Every decision is surfaced as ``lp.autotune`` span attributes by the
driver so ``repro analyze`` can reconstruct the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AutotuneController",
    "PhaseDecision",
    "SWEEP_FULL",
    "SWEEP_FRONTIER",
    "ENTRY_FRACTION",
    "EXIT_FRACTION",
    "CHUNK_PROBE_STEPS",
    "CHUNK_OVERHEAD",
    "CANCEL_PENALTY",
    "STATS_LEN",
    "S_UNIVERSE",
    "S_UPPER",
    "S_NEXT",
    "S_ARCS",
    "S_CHUNKS",
    "S_CANCELLED",
    "S_SCANNED",
]

#: sweep-mode names as recorded in decision traces and span attrs
SWEEP_FULL = "full"
SWEEP_FRONTIER = "frontier"

#: full -> frontier when the upper-bound active fraction drops below
#: this: a filtered sweep re-gathers only the active nodes' arcs, which
#: roughly doubles the per-arc cost, so it only pays below ~half activity
ENTRY_FRACTION = 0.5
#: frontier -> full when the exact active fraction rises back to this;
#: the [ENTRY_FRACTION, EXIT_FRACTION) gap is the hysteresis band
EXIT_FRACTION = 0.625

#: multiplicative chunk-request probe schedule (applied to the base chunk)
CHUNK_PROBE_STEPS = (1, 2, 4)
#: work-model cost of dispatching one chunk, in arc-scan units
CHUNK_OVERHEAD = 512.0
#: work-model cost of one inflow-cancelled move (wasted decision), in arcs
CANCEL_PENALTY = 8.0

# Slots of the per-phase stats vector the driver allreduces (elementwise
# global sums).  One flat float64 vector: a single small collective per
# iteration instead of one per quantity.
S_UNIVERSE = 0  #: nodes in the phase's scan order (active or not)
S_UPPER = 1  #: upper bound on the next active set (full sweep only)
S_NEXT = 2  #: exact next-active count (frontier sweep only)
S_ARCS = 3  #: arcs actually scanned
S_CHUNKS = 4  #: chunk windows dispatched
S_CANCELLED = 5  #: moves cancelled by the inflow cap
S_SCANNED = 6  #: nodes actually scanned
STATS_LEN = 7


@dataclass(frozen=True)
class PhaseDecision:
    """One iteration's dispatch decision, identical on every rank."""

    iteration: int
    sweep: str  #: SWEEP_FULL or SWEEP_FRONTIER
    chunk: int  #: *requested* chunk (``effective_chunk`` may clamp it)
    probe: bool  #: True while this chunk is a tuning probe
    locked: bool  #: True once the chunk search has locked in
    active_frac: float  #: the (bounded) fraction that drove the sweep choice


class AutotuneController:
    """Per-level dispatch state of one SCLP call.

    One controller per :func:`~repro.engine.sclp.run_sclp` call.  The
    driver alternates ``decide()`` (before the phase) and ``observe()``
    (after the phase, with the *globally reduced* stats vector); all
    state transitions are pure functions of those global sums and the
    iteration index, which is what makes the decision trace identical
    across the Local, Spmd and Process backends.
    """

    def __init__(
        self,
        chunk: int,
        *,
        entry_fraction: float = ENTRY_FRACTION,
        exit_fraction: float = EXIT_FRACTION,
    ):
        if exit_fraction < entry_fraction:
            raise ValueError(
                "hysteresis requires exit_fraction >= entry_fraction, got "
                f"{exit_fraction} < {entry_fraction}"
            )
        base = int(chunk)
        self.candidates = tuple(base * step for step in CHUNK_PROBE_STEPS)
        self.entry_fraction = float(entry_fraction)
        self.exit_fraction = float(exit_fraction)
        self._sweep = SWEEP_FULL
        self._locked_chunk: int | None = None
        self._active_frac = 1.0  # nothing observed yet: everything active
        self._costs: list[tuple[float, int]] = []
        self._iteration = 0  # the next phase to decide for
        self._pending: PhaseDecision | None = None

    @property
    def sweep(self) -> str:
        """The sweep the *next* ``decide()`` will pick (post-hysteresis)."""
        return self._sweep

    @property
    def locked_chunk(self) -> int | None:
        """The locked chunk request, or ``None`` while still probing."""
        return self._locked_chunk

    def decide(self) -> PhaseDecision:
        """Name the upcoming phase's sweep mode and chunk request."""
        if self._locked_chunk is not None:
            chunk, probe = self._locked_chunk, False
        else:
            chunk = self.candidates[min(self._iteration, len(self.candidates) - 1)]
            probe = True
        decision = PhaseDecision(
            iteration=self._iteration,
            sweep=self._sweep,
            chunk=int(chunk),
            probe=probe,
            locked=self._locked_chunk is not None,
            active_frac=self._active_frac,
        )
        self._pending = decision
        return decision

    def observe(self, stats) -> None:
        """Fold one phase's globally-reduced stats vector into the state.

        ``stats`` is the elementwise global sum (see the ``S_*`` slots);
        every rank passes the same vector, so every rank transitions to
        the same state.
        """
        decision = self._pending
        if decision is None:
            raise RuntimeError("observe() without a preceding decide()")
        self._pending = None
        universe = max(1.0, float(stats[S_UNIVERSE]))
        if self._locked_chunk is None:
            self._costs.append((_work_cost(decision.chunk, stats), decision.chunk))
            if len(self._costs) >= len(self.candidates):
                # Cheapest probe wins; ties go to the smallest chunk
                # (least phase-internal staleness for the same cost).
                self._locked_chunk = min(self._costs)[1]
        if decision.sweep == SWEEP_FULL:
            frac = float(stats[S_UPPER]) / universe
            if frac < self.entry_fraction:
                self._sweep = SWEEP_FRONTIER
        else:
            frac = float(stats[S_NEXT]) / universe
            if frac >= self.exit_fraction:
                self._sweep = SWEEP_FULL
        self._active_frac = min(1.0, frac)
        self._iteration += 1


def _work_cost(chunk: int, stats) -> float:
    """Score one chunk probe.  Smaller is better.

    The work model charges every arc once, every *modelled* chunk
    dispatch (``ceil(universe / requested)`` — the requested chunk
    against the global universe, deliberately not the per-rank
    effective windows, so the score is p-invariant) a fixed overhead,
    and every inflow-cancelled move a staleness penalty; the sum is
    normalised per scanned arc.
    """
    arcs = max(1.0, float(stats[S_ARCS]))
    universe = max(1.0, float(stats[S_UNIVERSE]))
    dispatches = math.ceil(universe / max(1, chunk))
    return 1.0 + (
        CHUNK_OVERHEAD * dispatches + CANCEL_PENALTY * float(stats[S_CANCELLED])
    ) / arcs
