"""The backend-abstracted multilevel V-cycle driver (paper §III, §IV-D, §IV-E).

One driver owns the multilevel skeleton for both pipelines — the
iterated cycles and which of them is kept, the coarsening level loop
(cluster bound, per-level bound adaptation, stall detection), the
initial-partitioning hand-off, and the uncoarsening loop (project →
refine per level) — together with all of its pipeline spans and events,
so the sequential and the distributed run emit the same observability
schema from the same code.  A cycle is a V and nothing else: one
descent, one ascent, every span at its own nesting level.

Everything substrate-specific is a :class:`VcycleBackend` hook: how a
level is clustered and contracted, what "global node count" means, how
the coarsest graph is partitioned (direct KaFFPa vs replica + KaFFPaE),
how a partition is projected and refined, how cuts are measured, how a
finished partition is scored against the others, and what bookkeeping
(memory-budget charges, simulated clocks) rides along.
:class:`repro.core.multilevel.LocalVcycleBackend` binds the hooks to the
sequential substrate, :class:`repro.dist.dist_partitioner.SpmdVcycleBackend`
to the simulated distributed-memory one.

Hooks that communicate are collective over the backend's communicator
and are called unconditionally on every rank (tracing-only hooks are
gated on the process-global ``TRACER.enabled``), so the lock-step
protocol of the simulated runtime is preserved by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..obsv.tracer import TRACER

__all__ = ["VcycleBackend", "VcycleResult", "iterate_vcycles", "run_coarsening",
           "run_vcycle"]

#: coarsening has stalled when a level keeps at least this share of its nodes
MIN_SHRINK_FACTOR = 0.95


class VcycleBackend(Protocol):
    """What the V-cycle driver needs from a pipeline substrate.

    One instance drives every cycle of a run on its finest graph.
    Level objects are opaque to the driver: whatever :meth:`contract`
    returns is stored and handed back to the level-scoped hooks.
    Likewise the partition state — a plain partition array sequentially,
    a ghost-extended label array in the SPMD pipeline — only flows
    between the hooks: a cycle's seed into :meth:`begin_coarsening`, and
    :meth:`initial_partition`, :meth:`project`, :meth:`refine_level`,
    the cut probes and :meth:`fitness`.
    """

    @property
    def emits_events(self) -> bool: ...  # True on exactly one rank
    def span_kwargs(self) -> dict: ...
    def clock(self) -> float: ...  # simulated seconds (0.0 sequentially)

    # --- coarsening ---
    # Start a cycle on the finest graph; a seed partition (or None) is
    # protected on the way down and seeds the coarsest level.
    def begin_coarsening(self, seed_partition: Any) -> None: ...
    def current_size(self) -> int: ...  # global nodes of the current level
    def max_node_weight(self) -> int: ...  # global max c(v), may reduce
    def cluster(self, level_bound: int) -> Any: ...
    def contract(self, labels: Any) -> Any: ...
    def coarse_size(self, level: Any) -> int: ...
    def coarsen_level_stats(self, level: Any) -> dict: ...  # tracing only; sizes, heaviest
    # Commit ``level``: its coarse graph becomes the current one, its
    # memory is charged, the protected partition is projected onto it.
    def descend(self, level: Any) -> None: ...

    # --- initial partitioning ---
    def initial_partition(self) -> Any: ...
    def coarsest_cut(self, partition: Any) -> int: ...  # tracing only

    # --- uncoarsening ---
    def coarsest_refine(self, partition: Any) -> Any: ...
    def project(self, level: Any, partition: Any) -> Any: ...
    def refine_level(self, level: Any, partition: Any) -> Any: ...
    def level_cut(self, level: Any, partition: Any) -> int: ...  # tracing only
    def release_level(self) -> None: ...

    # --- the cycle kept ---
    # (max(0, heaviest block - lmax), edge cut) of a finest-level partition
    def fitness(self, partition: Any) -> tuple[int, int]: ...


@dataclass
class VcycleResult:
    """Outcome of one driven V-cycle, or of the iterated ones."""

    partition: Any  # backend-specific partition state on the finest graph
    coarse_sizes: list[int]  # global node count after each level, every cycle
    phase_times: dict[str, float]  # simulated clock per pipeline phase


def run_coarsening(
    backend: VcycleBackend,
    config,
    lmax: int,
    cluster_factor: float,
    *,
    cycle: int | None = None,
    seed_partition: Any = None,
) -> tuple[list, list[int]]:
    """The coarsening level loop; returns (levels, coarse_sizes).

    Repeatedly cluster and contract until the graph fits the initial
    partitioner (``config.coarsest_target()`` nodes) or a level fails to
    shrink it by :data:`MIN_SHRINK_FACTOR` (stall).  The cluster
    bound is ``U = Lmax / f`` for the factor ``f = cluster_factor``; the
    per-level bound tracks coarse node growth (at least a pairwise merge
    must stay possible) but is capped well below ``lmax``: coarse nodes
    near ``lmax`` would make balanced initial partitioning a bin-packing
    problem with no feasible solution at small eps.  No cluster spans two
    blocks of ``seed_partition``.  A traced level records the bound it
    passed to :meth:`VcycleBackend.cluster` (``bound``) and the heaviest
    coarse node (``heaviest``).
    """
    # Floor of 2: at our scaled-down instance sizes the paper's mesh factor
    # f = 20 000 would otherwise drop the bound to 1 (singleton clusters,
    # no coarsening).  A bound of 2 degenerates gracefully to pairwise
    # (matching-like) contraction, the behaviour f = 20 000 produces at
    # the paper's billion-edge scale.
    max_cluster_weight = max(2, int(lmax / cluster_factor))
    target = config.coarsest_target()
    cap = max(2, lmax // 4)
    levels: list = []
    coarse_sizes: list[int] = []
    backend.begin_coarsening(seed_partition)
    while backend.current_size() > target:
        with TRACER.span(
            "coarsen.level", **backend.span_kwargs(), cycle=cycle, level=len(levels)
        ) as level_span:
            level_bound = min(
                max(max_cluster_weight, 2 * backend.max_node_weight()), cap
            )
            fine_size = backend.current_size()
            labels = backend.cluster(level_bound)
            level = backend.contract(labels)
            if backend.coarse_size(level) >= MIN_SHRINK_FACTOR * fine_size:
                # Ineffective level: stop rather than loop forever, and
                # partition what we have.
                level_span.set(stalled=True)
                break
            if TRACER.enabled:
                stats = backend.coarsen_level_stats(level)
                level_span.set(
                    fine_nodes=stats["fine_nodes"], coarse_nodes=stats["coarse_nodes"],
                    bound=level_bound, heaviest=stats["heaviest"],
                )
                if backend.emits_events:
                    TRACER.event(
                        "coarsen.level", cycle=cycle, level=len(levels), **stats,
                        bound=level_bound,
                        shrink=stats["fine_nodes"] / max(1, stats["coarse_nodes"]),
                    )
            levels.append(level)
            coarse_sizes.append(backend.coarse_size(level))
            backend.descend(level)
    return levels, coarse_sizes


@contextmanager
def _phase(backend: VcycleBackend, name: str, cycle, phase_times: dict):
    """One pipeline phase: its span and simulated time."""
    t0 = backend.clock()
    with TRACER.span(name, **backend.span_kwargs(), cycle=cycle) as span:
        yield span
    phase_times[name] = backend.clock() - t0


def run_vcycle(
    backend: VcycleBackend,
    config,
    lmax: int,
    cluster_factor: float,
    *,
    cycle: int | None = None,
    seed_partition: Any = None,
) -> VcycleResult:
    """Drive one multilevel cycle: coarsen → initial partition → uncoarsen.

    A ``seed_partition`` is protected on the way down
    (:meth:`VcycleBackend.descend`) and seeds the coarsest level, so the
    cycle starts uncoarsening no worse than it was given.
    """
    phase_times: dict[str, float] = {}
    traced = TRACER.enabled  # process-global: the same answer on every rank
    sizes = [backend.current_size()]  # global nodes per graph, finest first

    with _phase(backend, "coarsening", cycle, phase_times) as span:
        levels, coarse_sizes = run_coarsening(
            backend, config, lmax, cluster_factor, cycle=cycle,
            seed_partition=seed_partition,
        )
        sizes += coarse_sizes
        span.set(levels=len(levels))

    with _phase(backend, "initial", cycle, phase_times) as span:
        partition = backend.initial_partition()
        if traced:
            cut = backend.coarsest_cut(partition)
            span.set(nodes=sizes[-1], cut=cut)

    with _phase(backend, "refinement", cycle, phase_times):
        partition = backend.coarsest_refine(partition)
        if traced:
            cut_refined = backend.coarsest_cut(partition)
            if backend.emits_events:
                TRACER.event(
                    "initial.cut", cycle=cycle, nodes=sizes[-1], cut=cut,
                    cut_refined=cut_refined,
                )
        for level_idx in range(len(levels) - 1, -1, -1):
            level = levels[level_idx]
            with TRACER.span(
                "uncoarsen.level", **backend.span_kwargs(), cycle=cycle,
                level=level_idx,
            ) as level_span:
                partition = backend.project(level, partition)
                if traced:
                    cuts = {"cut_projected": backend.level_cut(level, partition)}
                partition = backend.refine_level(level, partition)
                if traced:
                    cuts["cut_refined"] = backend.level_cut(level, partition)
                    level_span.set(**cuts)
                    if backend.emits_events:
                        TRACER.event(
                            "uncoarsen.level", cycle=cycle, level=level_idx,
                            nodes=sizes[level_idx], **cuts,
                        )
            backend.release_level()

    return VcycleResult(partition, coarse_sizes, phase_times)


def iterate_vcycles(
    backend: VcycleBackend,
    config,
    lmax: int,
    factor: Callable[[int], float],
    seed_partition: Any = None,
) -> VcycleResult:
    """``config.num_vcycles`` V-cycles, each seeded with the best partition so far.

    A seed's cut edges are never contracted, so a cycle starts
    uncoarsening no worse than it (§IV-D).  ``factor(cycle)`` is the
    cluster-size factor ``f``, drawn just before the cycle.  Kept is the
    smallest of ``seed_partition`` (if given) and every cycle's result
    under :meth:`VcycleBackend.fitness`, a tie going to the later one; so
    a balanced seed is never made worse.  The result has every cycle's
    coarse sizes and the phase times summed over the cycles.
    """
    best = seed_partition
    best_key = None if seed_partition is None else backend.fitness(seed_partition)
    coarse_sizes: list[int] = []
    phase_times: dict[str, float] = {}
    for cycle in range(config.num_vcycles):
        f = factor(cycle)
        with TRACER.span(
            "vcycle", **backend.span_kwargs(), cycle=cycle, factor=float(f)
        ) as span:
            out = run_vcycle(backend, config, lmax, f, cycle=cycle, seed_partition=best)
            key = backend.fitness(out.partition)
            if best_key is None or key <= best_key:
                best, best_key = out.partition, key
            span.set(cut=key[1], best_cut=best_key[1])
        coarse_sizes += out.coarse_sizes
        for phase, elapsed in out.phase_times.items():
            phase_times[phase] = phase_times.get(phase, 0.0) + elapsed
    return VcycleResult(best, coarse_sizes, phase_times)
