"""Algorithm configurations: the paper's *fast*, *eco* and *minimal* presets.

Section V-A defines two "good" choices plus a minimal variant:

* **fast** — 3 label-propagation iterations during coarsening, 6 during
  refinement, evolutionary algorithm only builds the initial population,
  2 V-cycles;
* **eco** — same iteration counts, 5 V-cycles, and the evolutionary
  algorithm gets a real optimisation budget (the paper gives it
  ``t_p = t_1 / p`` seconds; we budget *rounds* instead, since simulated
  seconds are not wall-clock);
* **minimal** — like fast but a single V-cycle (used once in the paper,
  for the 16-second uk-2007 partition).

The size-constraint factor ``f`` (cluster bound ``U = Lmax / f``) is 14 on
social/web graphs, 20 000 on mesh networks during the first V-cycle, and a
random value in ``[10, 25]`` in later V-cycles for diversification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..engine.kernels import DEFAULT_CHUNK_SIZE
from ..graph.validation import check_integer
from ..engine.sclp import ORDERINGS
from ..kaffpa.driver import KaffpaOptions

__all__ = [
    "PartitionConfig", "check_integer", "fast_config", "eco_config", "minimal_config",
]

#: size-constraint factor f on social/web graphs during V-cycle 1 (§V-A)
CLUSTER_FACTOR_SOCIAL = 14.0
#: size-constraint factor f on mesh networks during V-cycle 1
CLUSTER_FACTOR_MESH = 20_000.0
#: f range drawn from in V-cycles after the first (diversification)
CLUSTER_FACTOR_LATER = (10.0, 25.0)


@dataclass(frozen=True)
class PartitionConfig:
    """Tuning parameters of the multilevel partitioner."""

    k: int = 2
    epsilon: float = 0.03
    #: label-propagation iterations per coarsening level (paper: 3)
    coarsening_iterations: int = 3
    #: label-propagation iterations per refinement level (paper: 6)
    refinement_iterations: int = 6
    #: number of V-cycles (fast: 2, eco: 5, minimal: 1)
    num_vcycles: int = 2
    #: stop coarsening once the graph has at most this many nodes per block
    #: (paper: 10 000; scaled down with our instances)
    coarsest_nodes_per_block: int = 40
    #: node visiting order during coarsening LP: 'degree' (paper default)
    #: or 'random' (ablation A1)
    coarsening_ordering: str = "degree"
    #: enable KaFFPa's flow-based refinement on the coarsest graph, in
    #: both pipelines (KaHIP technique, §II-C; costs time, helps k-way
    #: mesh quality)
    flow_refinement: bool = False
    #: evolutionary optimisation rounds on the coarsest graph at p = 1;
    #: the budget a run actually gets is divided by the number of PEs, the
    #: round-based analogue of the paper's t_p = t_1 / p rule.
    evolution_rounds: int = 0
    #: treat the input as a social/complex network (picks the f factor);
    #: ``None`` auto-detects from the degree distribution tail.
    social: bool | None = None
    #: accepted and ignored: the collective-order check of parallel runs
    #: is always on (docs/analysis.md).  ``benchmarks/e2e/child.py`` is
    #: frozen by BENCHMARK.json and reads ``config.sanitize``; a
    #: [benchmark] refresh drops the field.
    sanitize: bool | None = None
    #: wall-clock watchdog for one parallel run, in seconds (``None`` is
    #: the runtime's 60 s default; <= 0 disables)
    spmd_timeout: float | None = None
    #: label-propagation chunk size: nodes evaluated against one snapshot
    #: before labels and weights are committed (1 = node-at-a-time; see
    #: repro.engine.kernels).  The one LP knob, for both pipelines.
    lp_chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        for name in ("k", "num_vcycles", "coarsest_nodes_per_block", "lp_chunk_size"):
            check_integer(name, getattr(self, name))
        for name in ("coarsening_iterations", "refinement_iterations", "evolution_rounds"):
            check_integer(name, getattr(self, name), least=0)
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(
                f"epsilon must be a finite number >= 0, got {self.epsilon!r}")
        if self.coarsening_ordering not in ORDERINGS:
            raise ValueError(
                f"coarsening_ordering must be one of {', '.join(map(repr, ORDERINGS))}, "
                f"got {self.coarsening_ordering!r}")

    def cluster_factor(self, vcycle: int, social: bool, rng: np.random.Generator) -> float:
        """The size-constraint factor f for a given V-cycle and graph class."""
        if vcycle == 0:
            return CLUSTER_FACTOR_SOCIAL if social else CLUSTER_FACTOR_MESH
        return float(rng.uniform(*CLUSTER_FACTOR_LATER))

    def coarsest_target(self) -> int:
        """Coarsening stops at ``coarsest_nodes_per_block * k`` nodes."""
        return self.coarsest_nodes_per_block * self.k

    def coarsest_engine(self) -> KaffpaOptions:
        """KaFFPa options for the coarsest graph, the same in both pipelines."""
        return KaffpaOptions(
            coarsest_nodes=40,
            flow_refinement_below=1_000_000 if self.flow_refinement else 0,
        )

    def with_(self, **changes) -> "PartitionConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)


def fast_config(k: int = 2, epsilon: float = 0.03, **overrides) -> PartitionConfig:
    """The paper's *fast* configuration."""
    return PartitionConfig(k=k, epsilon=epsilon, **overrides)


def eco_config(k: int = 2, epsilon: float = 0.03, **overrides) -> PartitionConfig:
    """The paper's *eco* configuration: more V-cycles + real EA budget."""
    defaults = dict(num_vcycles=5, evolution_rounds=8)
    defaults.update(overrides)
    return PartitionConfig(k=k, epsilon=epsilon, **defaults)


def minimal_config(k: int = 2, epsilon: float = 0.03, **overrides) -> PartitionConfig:
    """The paper's *minimal* variant: a single V-cycle."""
    defaults = dict(num_vcycles=1)
    defaults.update(overrides)
    return PartitionConfig(k=k, epsilon=epsilon, **defaults)
