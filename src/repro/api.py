"""Top-level convenience API.

:func:`partition_graph` is the one-call entry point a downstream user
needs: pick a configuration (fast/eco/minimal), a number of simulated
PEs, and get a validated partition back with its quality metrics.
"""

from __future__ import annotations

import numpy as np

from .core.config import (
    PartitionConfig,
    check_integer,
    eco_config,
    fast_config,
    minimal_config,
)
from .core.partitioner import sequential_partition
from .dist.dist_partitioner import parallel_partition
from .engine.backend import resolve_backend
from .graph.csr import Graph
from .graph.validation import max_block_weight_bound
from .metrics.result import PartitionResult, finish_partition
from .perf.machine import Machine

__all__ = ["PartitionResult", "partition_graph", "partition_oocore"]

_PRESETS = {
    "fast": fast_config,
    "eco": eco_config,
    "minimal": minimal_config,
}


def _resolve_config(
    k: int, config: PartitionConfig | None, preset: str = "fast", epsilon: float = 0.03
) -> PartitionConfig:
    """``config`` if it agrees on ``k``, else the preset's configuration."""
    if config is None:
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}")
        return _PRESETS[preset](k=k, epsilon=epsilon)
    if config.k != k:
        raise ValueError(
            f"the call asks for k={k} blocks but config.k={config.k}; "
            "pass the same value to both"
        )
    return config


def partition_graph(
    graph: Graph,
    k: int,
    epsilon: float = 0.03,
    preset: str = "fast",
    num_pes: int = 1,
    machine: Machine | None = None,
    seed: int = 0,
    config: PartitionConfig | None = None,
    initial_partition: np.ndarray | None = None,
    backend: str | None = None,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` blocks with the ParHIP reproduction.

    Parameters
    ----------
    epsilon:
        Allowed imbalance; ignored when an explicit ``config`` is given
        (``config.epsilon`` rules).
    preset:
        ``'fast'`` | ``'eco'`` | ``'minimal'`` (paper Section V-A);
        ignored when an explicit ``config`` is given.
    config:
        A ready :class:`PartitionConfig` instead of a preset; its ``k``
        must equal ``k`` (``ValueError`` otherwise).
    num_pes:
        Number of simulated PEs.  1 runs the sequential algorithm;
        more runs the full parallel system on the simulated runtime.
    machine:
        Optional machine model for simulated timing (parallel runs).
    seed:
        An integer >= 0 (``ValueError`` otherwise).
    initial_partition:
        Optional prepartition (e.g. a geographic initialisation, the
        paper's future-work scenario): its cut edges are protected in
        the first V-cycle, and if it is balanced the result is never
        worse than it, on any ``num_pes``.  It must be a 1-D integer
        array of one label in ``[0, k)`` per node
        (:class:`~repro.graph.GraphError` naming it otherwise).  Not
        available on a non-resident (out-of-core) graph at
        ``num_pes=1`` (``ValueError``).
    backend:
        Launcher of a parallel run: ``'spmd'`` (simulated threads, the
        default) or ``'process'`` (real OS processes over shared-memory
        CSR).  ``num_pes=1`` is the sequential algorithm whatever this
        says.

    Isolated nodes (degree 0) never reach the multilevel V-cycles, on
    any ``num_pes``: the V-cycles partition the rest of the graph
    against this call's ``lmax``, and each isolated node then goes,
    heaviest first, into the block that is lightest at that moment
    (:mod:`repro.core.isolated`).  They cut nothing.

    Returns
    -------
    A validated :class:`PartitionResult`.  ``feasible`` says whether
    the heaviest block is within ``lmax``; when it is not, one
    :class:`RuntimeWarning` names the block and the bound.
    """
    num_pes = check_integer("num_pes", num_pes)
    seed = check_integer("seed", seed, least=0)
    config = _resolve_config(k, config, preset, epsilon)
    backend = resolve_backend(backend)
    if not graph.resident:
        if num_pes == 1:
            if initial_partition is not None:
                raise ValueError(
                    "initial_partition cannot seed a run on a non-resident "
                    f"store ({type(graph.store).__name__}) at num_pes=1: the "
                    "semi-external path has no V-cycle to protect it in; "
                    "materialize the graph or drop the argument"
                )
            # Out-of-core store: the multilevel pipeline would materialize
            # the arc arrays, so route to the semi-external flat path.
            return partition_oocore(graph, k, seed=seed, config=config)
        # The distributed pipelines slice per-rank subgraphs, which in
        # aggregate hold the whole arc set anyway — materialize up front
        # so the slicing sees plain arrays.
        graph = graph.materialized()
    if num_pes == 1:
        return sequential_partition(graph, config, seed=seed,
                                    input_partition=initial_partition)
    return parallel_partition(
        graph, config, num_pes=num_pes, machine=machine, seed=seed,
        initial_partition=initial_partition, backend=backend,
    )


def partition_oocore(
    graph: Graph,
    k: int,
    seed: int = 0,
    iterations: int = 16,
    config: PartitionConfig | None = None,
) -> PartitionResult:
    """Partition a (possibly out-of-core) graph with flat semi-external SCLP.

    The semi-external regime of arXiv:1404.4887: all O(n) state (labels,
    ``xadj``, ``vwgt``, block weights) stays in RAM while the O(m) arc
    arrays are read from the graph's store one shard segment per kernel
    call — ``ordering='node'`` visits nodes in natural order, so a phase
    is one pass over the shards.  Works on any store; on an
    :class:`~repro.graph.store.InMemoryStore` it produces bit-identical
    labels to the same call on a sharded store (test-enforced), which is
    what makes the out-of-core path verifiable.

    Unlike :func:`partition_graph`'s multilevel pipeline this is a flat
    partitioner: balanced striped initialisation refined by
    size-constrained label propagation.  Cuts are accordingly coarser;
    the point is partitioning graphs whose arc arrays do not fit in RAM.
    Of ``config`` (default: the *fast* preset) the pass reads
    ``epsilon`` and ``lp_chunk_size``.  ``seed`` and ``iterations`` are
    integers >= 0 (``ValueError`` otherwise).
    """
    from .engine.backend import LocalBackend
    from .engine.sclp import run_sclp

    config = _resolve_config(k, config)
    seed = check_integer("seed", seed, least=0)
    iterations = check_integer("iterations", iterations, least=0)
    n = graph.num_nodes
    vwgt = graph.vwgt
    total = int(vwgt.sum())
    bound = max_block_weight_bound(graph, k, config.epsilon)
    # Weight-balanced striped initialisation: node v starts in the block
    # owning its prefix-weight interval.  With unit weights every block
    # starts within one node of the average; with node weights a heavy
    # node can overfill its stripe's block and leave a later one empty,
    # and LP, which moves a node only to a neighbour's label, never fills
    # an empty block (ROADMAP item 1 has a reproducer).
    if n:
        prefix = np.cumsum(vwgt, dtype=np.int64) - vwgt
        labels = np.minimum((prefix * k) // max(1, total), k - 1)
    else:
        labels = np.zeros(0, dtype=np.int64)
    backend = LocalBackend(graph, np.random.default_rng(seed))
    labels = run_sclp(
        backend,
        labels,
        bound,
        iterations,
        refine=True,
        shares=False,
        k=k,
        ordering="node",
        chunk=config.lp_chunk_size,
        tie_seed=seed,
    )
    return finish_partition(graph, labels, k, config.epsilon, config,
                            store=type(graph.store).__name__)
