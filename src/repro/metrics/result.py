"""The one exit of every partitioner.

The two ParHIP pipelines, the out-of-core pass and the four baselines
hand their labels to :func:`finish_partition` and return the
:class:`PartitionResult` it builds (``partition_graph`` returns its
pipeline's): the partition is scored once, judged against
``Lmax = (1 + epsilon) * ceil(c(V) / k)``, and recorded in the trace.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import Graph
from ..graph.validation import max_block_weight_bound
from ..obsv.tracer import TRACER
from ..perf.rss import memory_sample
from .quality import PartitionQuality, evaluate_partition_streaming

if TYPE_CHECKING:  # core imports this module; the annotation only names it
    from ..core.config import PartitionConfig

__all__ = ["PartitionResult", "finish_partition"]


@dataclass(frozen=True)
class PartitionResult:
    """Partition plus quality, the bound it was held to, and its run record."""

    partition: np.ndarray
    quality: PartitionQuality
    config: PartitionConfig | None  # None for a baseline
    num_pes: int
    sim_time: float | None  # simulated seconds; None for sequential runs
    lmax: int  # the bound (1 + epsilon) * ceil(c(V) / k) the call was held to
    coarse_sizes: tuple[int, ...] = ()  # node count after each coarsening level
    phase_times: dict[str, float] = field(default_factory=dict)  # simulated s per phase

    @property
    def cut(self) -> int:
        return self.quality.cut

    @property
    def imbalance(self) -> float:
        return self.quality.imbalance

    @property
    def feasible(self) -> bool:
        """Whether the heaviest block is within :attr:`lmax`."""
        return self.quality.max_block_weight <= self.lmax


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that points a warning of the function calling
    this one at the first frame outside the ``repro`` package: where the
    partitioner was called, however deep in the package the exit is."""
    package = __name__.partition(".")[0]
    frame, level = sys._getframe(1), 1
    while frame is not None:
        if frame.f_globals.get("__name__", "").partition(".")[0] != package:
            break
        frame, level = frame.f_back, level + 1
    return level


def finish_partition(
    graph: Graph,
    partition: np.ndarray,
    k: int,
    epsilon: float,
    config: PartitionConfig | None = None,
    num_pes: int = 1,
    sim_time: float | None = None,
    coarse_sizes: tuple[int, ...] = (),
    phase_times: dict[str, float] | None = None,
    **header: str,
) -> PartitionResult:
    """Score ``partition`` once, judge it against Lmax, record it.

    The one evaluation refuses a partition of the wrong length or with a
    label outside ``[0, k)`` (:class:`~repro.graph.GraphError` naming
    it).  An infeasible partition is returned, with one
    :class:`RuntimeWarning` naming the heaviest block and Lmax, attributed
    to the line that called the partitioner.  A traced
    call records the same two numbers in its ``partition.quality`` event,
    which run.json's ``quality.feasible`` is read off, and the graph's
    number of isolated nodes.  A call that no SPMD runtime ran
    (``sim_time`` None: the sequential pipeline, the out-of-core pass)
    also stamps backend/p (plus ``header``) into the trace header and
    samples memory as rank 0, having no per-rank workers to do it — this
    feeds run.json's memory section.
    """
    quality = evaluate_partition_streaming(graph, partition, k)
    lmax = max_block_weight_bound(graph, k, epsilon)
    out = PartitionResult(partition, quality, config, num_pes, sim_time, lmax,
                          tuple(coarse_sizes), phase_times or {})
    if not out.feasible:
        warnings.warn(
            f"infeasible partition: block {int(np.argmax(quality.block_weights))} "
            f"weighs {quality.max_block_weight} > Lmax = {lmax} "
            f"(k={k}, eps={epsilon})",
            RuntimeWarning,
            stacklevel=_caller_stacklevel(),
        )
    if TRACER.enabled:
        if sim_time is None:
            TRACER.annotate_header(backend="local", p=1, **header)
            TRACER.event("mem.rank", rank=0, shared=False, **memory_sample())
        TRACER.event(
            "partition.quality",
            cut=int(quality.cut),
            imbalance=float(quality.imbalance),
            max_block_weight=int(quality.max_block_weight),
            lmax=lmax,
            isolated_nodes=int(np.count_nonzero(graph.degrees == 0)),
        )
    return out
