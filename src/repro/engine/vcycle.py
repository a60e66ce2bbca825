"""The backend-abstracted multilevel V-cycle driver (paper §III, §IV-E).

One driver owns the multilevel skeleton for both pipelines — the
coarsening level loop (per-level bound adaptation, stall detection,
constraint projection), the initial-partitioning hand-off, and the
uncoarsening loop (project → refine per level) — together with all of
its pipeline spans and events, so the sequential and the
distributed run emit the same observability schema from the same code.

Everything substrate-specific is a :class:`VcycleBackend` hook: how a
level is clustered and contracted, what "global node count" means, how
the coarsest graph is partitioned (direct KaFFPa vs replica + KaFFPaE),
how a partition is projected and refined, how cuts are measured, and
what bookkeeping (memory-budget charges, simulated clocks) rides along.
:class:`repro.core.multilevel.LocalVcycleBackend` binds the hooks to the
sequential substrate, :class:`repro.dist.dist_partitioner.SpmdVcycleBackend`
to the simulated distributed-memory one.

Hooks that communicate are collective over the backend's communicator
and are called unconditionally on every rank (tracing-only hooks are
gated on the process-global ``TRACER.enabled``), so the lock-step
protocol of the simulated runtime is preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..obsv.tracer import _NOOP_SPAN, TRACER
from ..perf.rss import memory_probe

__all__ = ["VcycleBackend", "VcycleResult", "run_coarsening", "run_vcycle"]


class VcycleBackend(Protocol):
    """What the V-cycle driver needs from a pipeline substrate.

    Level objects are opaque to the driver: whatever :meth:`contract`
    returns is stored and handed back to the level-scoped hooks.
    Likewise the partition state — a plain partition array sequentially,
    a ghost-extended label array in the SPMD pipeline — only flows
    between :meth:`initial_partition`, :meth:`project`,
    :meth:`refine_level` and the cut probes.
    """

    @property
    def emits_events(self) -> bool: ...  # True on exactly one rank
    def span_kwargs(self) -> dict: ...
    def clock(self) -> float: ...  # simulated seconds (0.0 sequentially)

    # --- coarsening ---
    def begin_coarsening(self) -> None: ...
    def current_size(self) -> int: ...  # global nodes of the current level
    def max_node_weight(self) -> int: ...  # global max c(v), may reduce
    def cluster(self, level_bound: int) -> Any: ...
    def contract(self, labels: Any) -> Any: ...
    def coarse_size(self, level: Any) -> int: ...
    def advance(self, level: Any) -> None: ...  # current graph := coarse
    def coarsen_level_stats(self, level: Any) -> dict: ...
    def charge_level(self, level: Any) -> None: ...
    def project_constraint(self, level: Any) -> None: ...

    # --- initial partitioning ---
    def initial_partition(self) -> Any: ...
    def initial_stats(self, partition: Any) -> tuple[int, int]: ...

    # --- uncoarsening ---
    def coarsest_refine(self, partition: Any) -> Any: ...
    def initial_cut_fields(
        self, partition: Any, stats: tuple[int, int]
    ) -> dict: ...
    def project(self, level: Any, partition: Any) -> Any: ...
    def refine_level(self, level: Any, partition: Any) -> Any: ...
    def level_cut(self, level: Any, partition: Any) -> int: ...
    def level_nodes(self, level: Any) -> int: ...
    def release_level(self) -> None: ...


@dataclass
class VcycleResult:
    """Outcome of one driven V-cycle."""

    partition: Any  # backend-specific partition state on the finest graph
    levels: list  # committed (non-stalled) contraction levels, finest first
    coarse_sizes: list[int]  # global node count after each level
    phase_times: dict[str, float]  # simulated clock per pipeline phase


def run_coarsening(
    backend: VcycleBackend,
    config,
    max_cluster_weight: int,
    lmax: int,
    *,
    cycle: int | None = None,
    top: bool = True,
) -> tuple[list, list[int]]:
    """The coarsening level loop; returns (levels, coarse_sizes).

    Repeatedly cluster and contract until the graph fits the initial
    partitioner (``config.coarsest_target()`` nodes) or a level fails to
    shrink it by ``config.min_shrink_factor`` (stall).  The per-level
    cluster bound tracks coarse node growth (at least a pairwise merge
    must stay possible) but is capped well below ``lmax``: coarse nodes
    near ``lmax`` would make balanced initial partitioning a bin-packing
    problem with no feasible solution at small eps.
    """
    target = config.coarsest_target()
    cap = max(2, lmax // 4)
    levels: list = []
    coarse_sizes: list[int] = []
    backend.begin_coarsening()
    while backend.current_size() > target:
        level_span = (
            TRACER.span(
                "coarsen.level", **backend.span_kwargs(), cycle=cycle,
                level=len(levels),
            )
            if top else _NOOP_SPAN
        )
        level_span.__enter__()
        level_bound = min(
            max(max_cluster_weight, 2 * backend.max_node_weight()), cap
        )
        fine_size = backend.current_size()
        labels = backend.cluster(level_bound)
        level = backend.contract(labels)
        if backend.coarse_size(level) >= config.min_shrink_factor * fine_size:
            # Ineffective level: stop rather than loop forever, and
            # partition what we have.
            level_span.set(stalled=True)
            level_span.__exit__(None, None, None)
            break
        levels.append(level)
        backend.advance(level)
        coarse_sizes.append(backend.coarse_size(level))
        if top and TRACER.enabled:
            stats = backend.coarsen_level_stats(level)
            shrink = stats["fine_nodes"] / max(1, stats["coarse_nodes"])
            level_span.set(
                fine_nodes=stats["fine_nodes"], coarse_nodes=stats["coarse_nodes"]
            )
            if backend.emits_events:
                TRACER.event(
                    "coarsen.level", cycle=cycle, level=len(levels) - 1,
                    **stats, shrink=shrink,
                )
        backend.charge_level(level)
        backend.project_constraint(level)
        level_span.__exit__(None, None, None)
    return levels, coarse_sizes


def run_vcycle(
    backend: VcycleBackend,
    config,
    lmax: int,
    max_cluster_weight: int,
    *,
    cycle: int | None = None,
    top: bool = True,
    wcycle_hook: Callable[[Any, Any], Any] | None = None,
) -> VcycleResult:
    """Drive one multilevel cycle: coarsen → initial partition → uncoarsen.

    ``top`` gates spans and events: inner W-cycle recursions
    pass ``top=False`` so phase times are not double-counted.
    ``wcycle_hook(level, partition)``, when given, runs after each
    level's refinement and may return an improved partition (the
    sequential W-cycle recursion).
    """
    phase_times: dict[str, float] = {}

    # Phase-boundary memory telemetry (tracing-only, uniform across
    # ranks: TRACER.enabled is process-global, so the probe never
    # diverges the collective schedule).
    traced = top and TRACER.enabled

    t0 = backend.clock()
    coarsen_span = (
        TRACER.span("coarsening", **backend.span_kwargs(), cycle=cycle)
        if top else _NOOP_SPAN
    )
    coarsen_span.__enter__()
    mem = memory_probe() if traced else None
    levels, coarse_sizes = run_coarsening(
        backend, config, max_cluster_weight, lmax, cycle=cycle, top=top
    )
    coarsen_span.set(levels=len(levels))
    if mem is not None:
        coarsen_span.set(**mem())
    coarsen_span.__exit__(None, None, None)
    phase_times["coarsening"] = backend.clock() - t0

    t0 = backend.clock()
    init_span = (
        TRACER.span("initial", **backend.span_kwargs(), cycle=cycle)
        if top else _NOOP_SPAN
    )
    init_span.__enter__()
    mem = memory_probe() if traced else None
    partition = backend.initial_partition()
    init_stats: tuple[int, int] | None = None
    if top and TRACER.enabled:
        init_stats = backend.initial_stats(partition)
        init_span.set(nodes=init_stats[0], cut=init_stats[1])
    if mem is not None:
        init_span.set(**mem())
    init_span.__exit__(None, None, None)
    phase_times["initial"] = backend.clock() - t0

    t0 = backend.clock()
    refine_span = (
        TRACER.span("refinement", **backend.span_kwargs(), cycle=cycle)
        if top else _NOOP_SPAN
    )
    refine_span.__enter__()
    mem = memory_probe() if traced else None
    partition = backend.coarsest_refine(partition)
    if top and TRACER.enabled and init_stats is not None and backend.emits_events:
        TRACER.event(
            "initial.cut", cycle=cycle,
            **backend.initial_cut_fields(partition, init_stats),
        )
    for level_idx in range(len(levels) - 1, -1, -1):
        level = levels[level_idx]
        level_span = (
            TRACER.span(
                "uncoarsen.level", **backend.span_kwargs(), cycle=cycle,
                level=level_idx,
            )
            if top else _NOOP_SPAN
        )
        level_span.__enter__()
        partition = backend.project(level, partition)
        cut_projected: int | None = None
        if top and TRACER.enabled:
            cut_projected = backend.level_cut(level, partition)
        partition = backend.refine_level(level, partition)
        if wcycle_hook is not None:
            partition = wcycle_hook(level, partition)
        if top and TRACER.enabled:
            cut_refined = backend.level_cut(level, partition)
            level_span.set(cut_projected=cut_projected, cut_refined=cut_refined)
            if backend.emits_events:
                TRACER.event(
                    "uncoarsen.level", cycle=cycle, level=level_idx,
                    nodes=backend.level_nodes(level),
                    cut_projected=cut_projected, cut_refined=cut_refined,
                )
        level_span.__exit__(None, None, None)
        backend.release_level()
    if mem is not None:
        refine_span.set(**mem())
    refine_span.__exit__(None, None, None)
    phase_times["refinement"] = backend.clock() - t0

    return VcycleResult(partition, levels, coarse_sizes, phase_times)
