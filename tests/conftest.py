"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import contextlib
import glob
import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.graph import Graph, from_edges

# Library-wide hypothesis profile: the kernels under test are O(n + m)
# array programs, so modest example counts exercise them well without
# making the suite slow.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Deterministic example graphs
# ----------------------------------------------------------------------

@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles joined by a single bridge edge (classic 2-cut = 1)."""
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


@pytest.fixture
def weighted_square() -> Graph:
    """4-cycle with distinct edge weights 1..4 and node weights 1..4."""
    return from_edges(
        4,
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        weights=[1, 2, 3, 4],
        vwgt=np.array([1, 2, 3, 4], dtype=np.int64),
    )


@pytest.fixture
def karate() -> Graph:
    """Zachary's karate club (34 nodes, 78 edges) — a tiny social network."""
    import networkx as nx

    from repro.graph import from_networkx

    return from_networkx(nx.karate_club_graph(), name="karate")


# ----------------------------------------------------------------------
# The compiled kernels and their Python twins
# ----------------------------------------------------------------------

def twin_bindings() -> dict:
    """Every binding of :mod:`repro.native` by name, mapped to its Python
    twin (the oracles under ``tests/``)."""
    from .engine import numpy_kernels
    from .engine.python_phase import PythonPhaseScan
    from .graph import metis_twin
    from .kaffpa import python_twins

    return {
        "PhaseScan": PythonPhaseScan,
        "quotient_arcs": python_twins.quotient_arcs,
        "GrowBisection": python_twins.GrowBisection,
        "kway_refine_pass": python_twins.kway_refine_pass,
        "match_heavy_edges": python_twins.match_heavy_edges,
        "partition_quality": numpy_kernels.partition_quality,
        "group_arcs": numpy_kernels.group_arcs,
        "ghost_layout": numpy_kernels.ghost_layout,
        "parse_metis": metis_twin.parse_metis,
    }


@contextlib.contextmanager
def python_twins():
    """Within the block, the package calls the Python twins of its
    compiled kernels instead of the kernels (the program itself has no
    way to: one implementation each).  Process-backend ranks are fresh
    interpreters and run the compiled kernels."""
    from repro import native

    with contextlib.ExitStack() as stack:
        for name, twin in twin_bindings().items():
            stack.enter_context(mock.patch.object(native, name, twin))
        yield


@pytest.fixture
def numpy_kernel():
    """Run the test on the Python twins of every compiled kernel (the
    NumPy chunk loop, scipy's quotient, KaFFPa's loops, the NumPy quality
    sweep, scipy's arc grouping, the NumPy ghost layout, the per-token
    METIS loop)."""
    with python_twins():
        yield


@pytest.fixture
def compiled_kernels():
    """Run the test on the compiled kernels, built and loaded (the
    counterpart of ``numpy_kernel`` in tests parametrised over both)."""
    from repro import native

    native.resolve()


def kernel_cache_leftovers() -> list[str]:
    """Temporary build files left in the compiled kernel's cache dir."""
    from repro import native

    return sorted(str(p) for p in native.cache_dir().glob("*.tmp"))


@pytest.fixture
def no_shm_leak():
    """Fails the test if it leaves a shared-memory CSR segment behind.

    Only segments that appear during the test count: those present
    before it belong to other process-backend runs alive on the host.
    """
    from repro.graph.store import SHM_PREFIX

    pattern = f"/dev/shm/{SHM_PREFIX}_*"
    before = set(glob.glob(pattern))
    yield
    assert sorted(set(glob.glob(pattern)) - before) == []


@pytest.fixture
def no_child_left():
    """Fails the test if a process it started is still running after it:
    ``multiprocessing.active_children()`` (which also reaps the finished
    ones) lists none that was not there before."""
    before = {proc.pid for proc in multiprocessing.active_children()}
    yield
    assert [proc.name for proc in multiprocessing.active_children()
            if proc.pid not in before] == []


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

@st.composite
def random_graphs(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 40,
    max_weight: int = 8,
    connected: bool = False,
) -> Graph:
    """Strategy producing small random weighted graphs.

    Edges are drawn as an Erdős–Rényi-style subset; when ``connected`` is
    requested a random spanning tree is added first.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(min_value=0.0, max_value=0.35))
    edges: set[tuple[int, int]] = set()
    if connected and n > 1:
        order = rng.permutation(n)
        for i in range(1, n):
            u = int(order[rng.integers(0, i)])
            v = int(order[i])
            edges.add((min(u, v), max(u, v)))
    target = int(density * n * (n - 1) / 2)
    for _ in range(target):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    edge_list = sorted(edges)
    weights = rng.integers(1, max_weight + 1, size=len(edge_list))
    vwgt = rng.integers(1, max_weight + 1, size=n)
    return from_edges(n, edge_list, weights=weights, vwgt=vwgt, name=f"rand{seed % 1000}")


@st.composite
def graphs_with_labels(draw, min_nodes: int = 1, max_nodes: int = 40):
    """A random graph together with an arbitrary cluster-label array."""
    graph = draw(random_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=2 * graph.num_nodes),
            min_size=graph.num_nodes,
            max_size=graph.num_nodes,
        )
    )
    return graph, np.asarray(labels, dtype=np.int64)
