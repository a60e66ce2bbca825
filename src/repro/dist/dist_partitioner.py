"""The overall parallel system (paper Section IV-E, Figure 4).

Per V-cycle, the SPMD program on every PE:

1. runs ``l`` iterations of parallel size-constrained label propagation
   and contracts the clustering in parallel, recursively, until the graph
   has at most ``coarsest_nodes_per_block * k`` nodes;
2. collects the distributed coarsest graph on every PE (each PE gets a
   full replica — the step whose memory cost sinks ParMetis on complex
   networks, and which cluster coarsening makes affordable);
3. runs the distributed evolutionary algorithm KaFFPaE on the replica
   (fast config: initial population only; eco: optimisation rounds
   budgeted as ``t_p = t_1 / p``), feeding the previous V-cycle's
   partition in as an individual;
4. transfers the best partition onto the distributed coarse graph and
   uncoarsens level by level, applying ``r`` iterations of parallel label
   propagation with the hard constraint ``W = Lmax`` after each
   projection.

The cycle skeleton — level loops, spans, events, phase accounting, the
iterated cycles and the one kept — is the shared driver
:mod:`repro.engine.vcycle`; this module binds its hooks to the SPMD
substrate (:class:`SpmdVcycleBackend`: ghost CSR, halo exchanges,
allreduced statistics, memory-budget charges) and keeps the public API.
Every hook that communicates is collective over ``comm`` and is reached
identically on every rank, preserving the lock-step protocol of the
simulated runtime.

Both label propagations are :func:`repro.engine.sclp.run_sclp` on an
:class:`~repro.engine.backend.SpmdBackend` over the level's graph
slice: clustering from singletons named by global id, each PE keeping a
local view of the cluster weights, nodes in local-degree order;
refinement under the hard bound with exact weights restored by an
allreduce every phase and per-PE 1/p budget shares within it (§IV-B),
nodes in random order.  Ghost labels are one phase stale.

Nodes without arcs take no part: every rank sets them apart before the
first V-cycle and places them after the last (:mod:`repro.core.isolated`).

Quality numbers are real outputs; times are the simulated clocks of the
machine model.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..core.config import PartitionConfig, fast_config
from ..core.isolated import around_isolated
from ..core.multilevel import detect_social
from ..engine.backend import SpmdBackend, resolve_backend
from ..engine.sclp import run_sclp
from ..engine.vcycle import iterate_vcycles
from ..evolutionary.kaffpae import KaffpaeOptions, kaffpae_partition
from ..graph.build import group_arcs
from ..graph.csr import Graph
from ..metrics.quality import edge_cut
from ..metrics.result import PartitionResult, finish_partition
from ..obsv.tracer import TRACER
from ..perf.machine import Machine
from ..perf.memory import MemoryBudget, estimate_graph_bytes
from .comm import SimComm
from .dgraph import DistGraph, balanced_vtxdist
from .dist_contraction import parallel_contract, parallel_uncoarsen
from .runtime import run_spmd, run_spmd_processes

__all__ = [
    "SpmdVcycleBackend",
    "parallel_partition",
    "parhip_program",
    "parhip_vcycles",
]


def _collect_replica(dgraph: DistGraph, comm: SimComm) -> Graph:
    """Allgather the distributed graph into a full replica on every PE."""
    src = dgraph.to_global(dgraph.arc_sources())
    dst = dgraph.to_global(dgraph.adjncy)
    pieces = comm.allgather((src, dst, dgraph.adjwgt, dgraph.vwgt))
    all_src, all_dst, all_wgt, all_vwgt = (np.concatenate(column) for column in zip(*pieces))
    xadj, adjncy, adjwgt = group_arcs(dgraph.n_global, all_src, all_dst, all_wgt)
    return Graph(xadj, adjncy, all_vwgt, adjwgt, name="coarsest-replica")


def distributed_edge_cut(dgraph: DistGraph, comm: SimComm, labels: np.ndarray) -> int:
    """Global edge cut of a (local + ghost) label array, via allreduce."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    local_cut, _, _ = native.partition_quality(
        dgraph.xadj, 0, dgraph.n_local, 0, dgraph.adjncy, dgraph.adjwgt,
        labels, int(labels.max(initial=-1)) + 1,
    )
    # Cross-PE cut arcs are counted once per side, local-local arcs twice;
    # summing over all PEs double-counts every cut edge exactly twice.
    return int(comm.allreduce(local_cut)) // 2


class SpmdVcycleBackend:
    """SPMD binding of the V-cycle backend protocol (collective hooks).

    One instance drives every V-cycle of a run on one rank.  ``current``
    tracks the distributed graph of the level being built, from
    ``dgraph`` down; the partition state handed through the hooks, a
    cycle's seed included, is a ghost-extended label array (length
    ``n_total`` of the level's graph) whose ghost entries are their
    owners' labels.
    """

    def __init__(
        self,
        dgraph: DistGraph,
        comm: SimComm,
        config: PartitionConfig,
        lmax: int,
        budget: MemoryBudget | None,
        memory_scale: float = 1.0,
        replica_memory_scale: float | None = None,
    ):
        self.dgraph = dgraph
        self.comm = comm
        self.config = config
        self.lmax = lmax
        self.budget = budget
        self.memory_scale = memory_scale
        self.replica_memory_scale = replica_memory_scale
        self.current = dgraph
        self.constraint: np.ndarray | None = None
        self.level_charges: list[float] = []
        # Global fine edge count of the current level, maintained only
        # while tracing (one extra allreduce per level, uniform across
        # ranks because TRACER.enabled is process-global).
        self.traced_edges: int | None = None
        self._replica: Graph | None = None
        self._coarsest_partition: np.ndarray | None = None

    @property
    def emits_events(self) -> bool:
        return self.comm.rank == 0

    def span_kwargs(self) -> dict:
        return {"comm": self.comm}

    def clock(self) -> float:
        return self.comm.sim_time

    # --- coarsening ---

    def begin_coarsening(self, seed_partition: np.ndarray | None) -> None:
        self.current = self.dgraph
        self.constraint = seed_partition
        if TRACER.enabled:
            self.traced_edges = int(self.comm.allreduce(self.current.num_arcs)) // 2

    def current_size(self) -> int:
        return self.current.n_global

    def max_node_weight(self) -> int:
        # The max node weight is global, hence one allreduce per level.
        local_max = int(self.current.vwgt.max(initial=1))
        return int(self.comm.allreduce_max(local_max))

    def cluster(self, level_bound: int) -> np.ndarray:
        # Singletons named by global id; local weight views, degree order.
        return run_sclp(
            SpmdBackend(self.current, self.comm),
            self.current.to_global(np.arange(self.current.n_total, dtype=np.int64)),
            level_bound,
            self.config.coarsening_iterations,
            ordering=self.config.coarsening_ordering,
            constraint=self.constraint,
            chunk=self.config.lp_chunk_size,
            tie_seed=int(self.comm.rng.integers(0, 2**63 - 1)),
        )

    def contract(self, labels: np.ndarray):
        return parallel_contract(
            self.current, self.comm, labels, constraint=self.constraint
        )

    def coarse_size(self, level) -> int:
        return level.coarse.n_global

    def coarsen_level_stats(self, level) -> dict:
        coarse = level.coarse
        arcs, heaviest = self.comm.allreduce(
            (int(coarse.num_arcs), int(coarse.vwgt.max(initial=0))),
            op=lambda a, b: (a[0] + b[0], max(a[1], b[1])),
        )
        stats = {
            "fine_nodes": level.fine.n_global,
            "fine_edges": self.traced_edges,
            "coarse_nodes": coarse.n_global,
            "coarse_edges": arcs // 2,
            "heaviest": heaviest,
        }
        self.traced_edges = arcs // 2
        return stats

    def descend(self, level) -> None:
        self.current = level.coarse
        if self.budget is not None:
            global_arcs = int(self.comm.allreduce(self.current.num_arcs))
            level_bytes = estimate_graph_bytes(
                -(-self.current.n_global // self.comm.size),
                -(-(global_arcs // 2) // self.comm.size),
            )
            self.budget.charge(level_bytes, "coarse level")
            self.level_charges.append(level_bytes)
        if self.constraint is not None:
            extended = np.zeros(self.current.n_total, dtype=np.int64)
            extended[: self.current.n_local] = level.coarse_constraint
            self.current.halo_exchange(self.comm, extended)
            self.constraint = extended

    # --- initial partitioning ---

    def initial_partition(self) -> np.ndarray:
        replica = _collect_replica(self.current, self.comm)
        if self.budget is not None:
            # The replica is charged with its own scale: the paper stops
            # coarsening at 10 000*k of >10^8 nodes (a ~0.1 % fraction),
            # whereas our scaled-down coarsest is a few percent of the
            # stand-in — applying the instance byte-scale directly would
            # overstate the paper-scale replica by that fraction ratio.
            ratio = (
                self.replica_memory_scale / self.memory_scale
                if self.replica_memory_scale is not None
                else 1.0
            )
            self.budget.charge(
                estimate_graph_bytes(replica.num_nodes, replica.num_edges) * ratio,
                "replicated coarsest graph",
            )
        seed_partition = None
        if self.constraint is not None:
            seed_partition = self.current.gather_global(self.comm, self.constraint)
        ea_options = KaffpaeOptions(
            rounds=self.config.evolution_rounds,
            engine=self.config.coarsest_engine(),
        )
        coarsest_partition = kaffpae_partition(
            self.comm,
            replica,
            self.config.k,
            self.lmax,
            ea_options,
            seed_individual=seed_partition,
        )
        self._replica = replica
        self._coarsest_partition = coarsest_partition
        return self.current.local_view(coarsest_partition)

    def coarsest_cut(self, partition: np.ndarray) -> int:
        # Every rank holds the replica and KaFFPaE's full partition, of
        # which ``partition`` is the local slice: no collective needed.
        return int(edge_cut(self._replica, self._coarsest_partition))

    # --- uncoarsening ---

    def coarsest_refine(self, partition: np.ndarray) -> np.ndarray:
        # No coarsest-level refinement: KaFFPaE's output goes straight
        # into the uncoarsening loop.
        return partition

    def project(self, level, partition: np.ndarray) -> np.ndarray:
        partition_local = parallel_uncoarsen(
            level, self.comm, partition[: level.coarse.n_local]
        )
        labels = np.zeros(level.fine.n_total, dtype=np.int64)
        labels[: level.fine.n_local] = partition_local
        level.fine.halo_exchange(self.comm, labels)
        return labels

    def refine_level(self, level, partition: np.ndarray) -> np.ndarray:
        # Exact weights per phase, 1/p budget shares within it, random order.
        return run_sclp(
            SpmdBackend(level.fine, self.comm),
            partition,
            self.lmax,
            self.config.refinement_iterations,
            refine=True,
            shares=True,
            k=self.config.k,
            ordering="random",
            chunk=self.config.lp_chunk_size,
            tie_seed=int(self.comm.rng.integers(0, 2**63 - 1)),
        )

    def level_cut(self, level, partition: np.ndarray) -> int:
        return distributed_edge_cut(level.fine, self.comm, partition)

    def release_level(self) -> None:
        if self.budget is not None and self.level_charges:
            self.budget.release(self.level_charges.pop())

    def fitness(self, partition: np.ndarray) -> tuple[int, int]:
        # Tagged: its stats key and order check tell it from the LP's sums.
        local = np.bincount(partition[: self.dgraph.n_local], weights=self.dgraph.vwgt,
                            minlength=self.config.k).astype(np.int64)
        heaviest = int(self.comm.allreduce(local, tag="fitness").max(initial=0))
        return (max(0, heaviest - self.lmax),
                distributed_edge_cut(self.dgraph, self.comm, partition))


def parhip_program(
    comm: SimComm,
    graph: Graph,
    config: PartitionConfig,
    seed: int,
    memory_budget: float | None = None,
    memory_scale: float = 1.0,
    replica_memory_scale: float | None = None,
    initial_partition: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[list[int], dict]]:
    """The SPMD body of the parallel partitioner (collective over ``comm``).

    :func:`parhip_vcycles` on the nodes of degree > 0; every rank then
    places the isolated nodes alike (:mod:`repro.core.isolated`).
    Returns the *global* partition (identical on every rank) and what
    :func:`parhip_vcycles` reports beside it.
    """
    def cycles(part: Graph, lmax: int, seeded):
        return parhip_vcycles(comm, part, config, lmax, seed, memory_budget,
                              memory_scale, replica_memory_scale, seeded)

    return around_isolated(graph, config, cycles, initial_partition, idle=([], {}))


def parhip_vcycles(
    comm: SimComm,
    graph: Graph,
    config: PartitionConfig,
    lmax: int,
    seed: int,
    memory_budget: float | None = None,
    memory_scale: float = 1.0,
    replica_memory_scale: float | None = None,
    initial_partition: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[list[int], dict]]:
    """Distribute ``graph``, run the V-cycles against ``lmax``, gather the partition.

    What :func:`parhip_program` runs on a graph without isolated nodes;
    the result and collective schedule are the same on every rank.
    Returns the global partition and ``(coarse_sizes, phase_times)``: the
    global node count after every coarsening level of every cycle, and
    this rank's simulated seconds per pipeline phase.
    """
    vtxdist = balanced_vtxdist(graph.num_nodes, comm.size)
    dgraph = DistGraph.from_global(graph, vtxdist, comm.rank)
    social = config.social if config.social is not None else detect_social(graph)
    budget = (
        MemoryBudget(memory_budget, scale=memory_scale) if memory_budget is not None else None
    )
    if budget is not None:
        # Charge the *ideal* 1/p share (global sizes divided by p): at the
        # paper's instance sizes ghosts are a small fraction of a PE's
        # subgraph, whereas at our scaled-down sizes they would dominate
        # and distort the paper-scale extrapolation the scale factor does.
        budget.charge_graph(
            -(-graph.num_nodes // comm.size),
            -(-graph.num_edges // comm.size),
            "input subgraph",
        )
    backend = SpmdVcycleBackend(
        dgraph, comm, config, lmax, budget,
        memory_scale=memory_scale, replica_memory_scale=replica_memory_scale,
    )
    run = iterate_vcycles(
        backend, config, lmax,
        # All ranks must agree on the factor f: it comes from a shared RNG.
        lambda cycle: config.cluster_factor(
            cycle, social, np.random.default_rng((seed, 7_919, cycle))),
        # A prepartition (future-work scenario) seeds the first V-cycle
        # exactly like the previous cycle's result seeds the next.
        None if initial_partition is None else dgraph.local_view(initial_partition),
    )
    return dgraph.gather_global(comm, run.partition), (run.coarse_sizes, run.phase_times)


def parallel_partition(
    graph: Graph,
    config: PartitionConfig | None = None,
    num_pes: int = 4,
    machine: Machine | None = None,
    seed: int = 0,
    memory_budget: float | None = None,
    memory_scale: float = 1.0,
    replica_memory_scale: float | None = None,
    initial_partition: np.ndarray | None = None,
    backend: str | None = None,
) -> PartitionResult:
    """Partition ``graph`` with the full parallel system on ``num_pes`` PEs.

    ``backend`` selects the execution substrate for the SPMD ranks:
    ``'spmd'`` (simulated PEs as lock-step threads, the default) or
    ``'process'`` (real OS processes over shared-memory CSR segments via
    :func:`~repro.dist.runtime.run_spmd_processes`).  Both substrates
    produce bit-identical partitions and simulated clocks — the process
    backend additionally scales in wall clock.

    Raises :class:`repro.perf.OutOfMemoryError` if a ``memory_budget`` (in
    scaled bytes per PE) is given and exceeded — the mechanism behind the
    ``*`` entries of Tables II/III.
    """
    config = config or fast_config()
    common = dict(
        machine=machine,
        seed=seed,
        timeout=config.spmd_timeout,
        memory_budget=memory_budget,
        memory_scale=memory_scale,
        replica_memory_scale=replica_memory_scale,
        initial_partition=initial_partition,
    )
    if resolve_backend(backend) == "process":
        result = run_spmd_processes(
            num_pes, parhip_program, config, seed, graph=graph, **common
        )
    else:
        result = run_spmd(num_pes, parhip_program, graph, config, seed, **common)
    partition, (coarse_sizes, phase_times) = result.value
    return finish_partition(graph, partition, config.k, config.epsilon, config,
                            num_pes, result.sim_time, coarse_sizes, phase_times)
