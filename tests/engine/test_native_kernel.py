"""The compiled kernels: identity with their Python twins, and the loader.

The contracts of the SCLP scan (the other kernels have their
differentials beside their twins' tests, ``tests/graph/test_quotient.py``,
``tests/kaffpa/test_native_twins.py`` and
``tests/metrics/test_quality_kernel.py``; what they share with the scan
— one loader, reentrancy, the missing compiler — is held here):

* a ``run_sclp`` call through the compiled ``PhaseScan`` and the same
  call on its twin, the Python chunk loop over the NumPy kernel
  (``tests/engine/python_phase.py``), return the same labels and report
  the same per-phase ``moved`` / ``arcs`` / ``chunks`` / ``active`` /
  ``frontier_frac`` / ``global_changed`` — in every regime, sweep and
  chunk size, on one address space, on SPMD ranks and over the shard
  segments of an out-of-core store;
* the compiled ``scan_chunk`` (one window of ``scan_phase``, exported
  for these tests) and the NumPy one return the same ``(target, blocked,
  margin, arcs)``, the NumPy one against the float caps of the reference
  oracle and the compiled one against their floor;
* the loader binds every exported C function with the arity and return
  type of its prototype;
* the frontier's two wake-up rules, on hand-built graphs, compiled and
  twin: a blocked node sleeps until a flagged label has room (or its mask
  stands for more than 64 labels), a hub until its movers outweigh its
  margin;
* whatever keeps the compiled kernels from loading raises one
  ``KernelUnavailable`` naming the cause, at the first kernel use and
  not at import;
* the existing identity suites (oracle, frontier == full, goldens,
  Local == Spmd == Process, the quotient, KaFFPa and quality suites)
  hold on the twins too — they run compiled by default, and their small cases run
  here once more under the ``numpy_kernel`` fixture;
* the C side keeps no static state: threads calling every kernel at once
  on different graphs get what they get alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dist import DistGraph, balanced_vtxdist, run_spmd
from repro.dist.runtime import run_spmd_processes
from repro import native
from repro.engine import LocalBackend, SpmdBackend, run_sclp
from repro.generators import grid_2d, rmat
from repro.graph import contract, from_edges, max_block_weight_bound, write_metis
from repro.graph.io import _metis_header
from repro.graph.ops import band_nodes
from repro.kaffpa import greedy_kway_refine, heavy_edge_matching, recursive_bisection
from repro.obsv.tracer import TRACER

from ..conftest import kernel_cache_leftovers, python_twins, random_graphs, twin_bindings
from ..core import test_lp_kernels as seq_suite
from ..core.test_lp_kernels import EDGELESS, HEAVY_NODE, WITH_ISOLATED
from ..dist import test_lp_kernels as dist_suite
from ..graph import test_quotient as quotient_suite
from ..kaffpa import test_initial as initial_suite
from ..kaffpa import test_matching as matching_suite
from ..kaffpa import test_refinement_and_driver as driver_suite
from ..metrics import test_quality as quality_suite
from ..metrics import test_quality_kernel as quality_kernel_suite
from . import numpy_kernels
from . import test_cross_backend as cross_suite
from . import test_golden_equivalence as golden_suite
from .numpy_kernels import candidate_tie_hash
from .python_phase import PythonPhaseScan

def compiled_scan_chunk(nodes, xadj, adjncy, adjwgt, labels, constraint, vwgt,
                        used, cap, evicting, tie_seed, tie_base, space,
                        flags=True, scratch=None):
    """``scan_chunk`` of ``_scan.c`` — one window of ``scan_phase``, bound
    by the loader like every exported function — with the NumPy twin's
    signature.  The ``blocked``/``slack`` tables it fills are read back at
    ``nodes``; ``flags=False`` passes none (a full sweep's call), and the
    two come back ``None``.  ``scratch`` may hold the ``acc``/``mark``/
    ``touched`` tables the call uses (fresh ones by default)."""
    ptr = native._ptr
    n_chunk, n_total = nodes.size, labels.size
    begin = xadj[nodes]
    count = xadj[nodes + 1] - begin
    if scratch is None:
        scratch = {"acc": np.zeros(space, dtype=np.int64),
                   "mark": np.zeros(space, dtype=np.uint8),
                   "touched": np.empty(space, dtype=np.int64)}
    target = np.empty(n_chunk, dtype=np.int64)
    blocked = np.zeros(n_total, dtype=np.uint64) if flags else None
    slack = np.zeros(n_total, dtype=np.int64) if flags else None
    arcs = native._kernels().scan_chunk(
        n_chunk, ptr(nodes, np.int64), ptr(begin, np.int64, n_chunk),
        ptr(count, np.int64, n_chunk), ptr(adjncy, np.int64),
        ptr(adjwgt, np.int64, adjncy.size), n_total, ptr(labels, np.int64),
        None if constraint is None else ptr(constraint, np.int64, n_total),
        ptr(vwgt, np.int64, n_total), ptr(used, np.int64, space),
        ptr(cap, np.int64, space),
        None if evicting is None else ptr(evicting, np.bool_, n_chunk),
        tie_seed, tie_base, space,
        *(ptr(scratch[name], dtype, space) for name, dtype in (
            ("acc", np.int64), ("mark", np.uint8), ("touched", np.int64))),
        target.ctypes.data,
        None if blocked is None else blocked.ctypes.data,
        None if slack is None else slack.ctypes.data,
    )
    if arcs < 0:
        raise ValueError("the native scan met an index outside its table")
    if flags:
        return target, blocked[nodes], slack[nodes], int(arcs)
    return target, None, None, int(arcs)


#: what an ``lp.iteration`` span says about its phase, whichever loop ran it
PHASE_ATTRS = ("mode", "sweep", "iteration", "chunk_size", "moved", "arcs",
               "chunks", "active", "frontier_frac", "global_changed")


def traced_lp(fn):
    """``fn()`` under the tracer: its value, its ``lp.iteration`` spans and
    the trace header."""
    TRACER.enable(reset=True)
    try:
        value = fn()
        header = dict(TRACER.header)
        spans = [
            r for r in TRACER.snapshot()
            if r.get("type") == "span" and r.get("name") == "lp.iteration"
        ]
    finally:
        TRACER.disable()
    return value, spans, header


def traced_phases(fn):
    """``fn()``'s value and, per ``lp.iteration`` span, ``(rank, loop,
    PHASE_ATTRS...)`` in rank order."""
    value, spans, _ = traced_lp(fn)
    phases = [
        (s.get("rank"), s["attrs"]["loop"], *(s["attrs"][a] for a in PHASE_ATTRS))
        for s in spans
    ]
    return value, sorted(phases, key=lambda row: (row[0] is not None, row[0] or 0))


def phase_scan_vs_chunk_loop(fn) -> int:
    """Run ``fn`` through the compiled ``PhaseScan`` and on the Python
    chunk loop over the NumPy kernel; values and per-phase reports must
    agree.  Returns the number of phases compared."""
    got, got_phases = traced_phases(fn)
    with python_twins():
        want, want_phases = traced_phases(fn)
    np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
    assert {row[1] for row in got_phases} <= {"native", "native: store segments"}
    assert got_phases == want_phases
    return len(got_phases)


def rank_lp(comm, regime, constrained, chunk, sweep):
    """One SCLP call on a rank of ``dist_suite.GRAPH``: ghost slots, a
    non-zero tie base, a constraint with a halo, and (p = 3) budget shares
    that are not integers — the float ``cap``."""
    graph = dist_suite.GRAPH
    dgraph = DistGraph.from_global(
        graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
    )
    owned = slice(dgraph.first, dgraph.first + dgraph.n_local)
    cons = None
    if constrained:
        cons = np.zeros(dgraph.n_total, dtype=np.int64)
        cons[: dgraph.n_local] = dist_suite.CONSTRAINT[owned]
        dgraph.halo_exchange(comm, cons)
    common = dict(constraint=cons, chunk=chunk, pin_sweep=sweep, tie_seed=17)
    if regime == "cluster":
        init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
        labels = run_sclp(SpmdBackend(dgraph, comm), init, 30, 3, **common)
    else:
        start = np.random.default_rng(7).integers(0, 4, graph.num_nodes)
        labels = np.zeros(dgraph.n_total, dtype=np.int64)
        labels[: dgraph.n_local] = start[owned]
        dgraph.halo_exchange(comm, labels)
        labels = run_sclp(
            SpmdBackend(dgraph, comm), labels, int(graph.vwgt.sum()) // 4 + 8,
            4, refine=True, shares=regime == "refine-shares", k=4,
            ordering="random", **common,
        )
    return dgraph.gather_global(comm, labels[: dgraph.n_local])


class TestNativeMatchesNumpy:
    @given(
        random_graphs(min_nodes=1, max_nodes=24),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["cluster", "refine-live", "refine-shares"]),
        st.booleans(),
        st.sampled_from([1, 3, 16]),
        st.sampled_from(["full", "frontier", None]),
        st.sampled_from([0, 2**40 + 5]),
    )
    @example(EDGELESS, 3, 2, "refine-live", False, 1, "full", 0)
    @example(HEAVY_NODE, 1, 4, "refine-live", False, 3, "full", 0)
    @example(HEAVY_NODE, 1, 4, "cluster", True, 16, None, 7)
    @example(WITH_ISOLATED, 2, 2, "refine-shares", True, 3, "frontier", 7)
    @example(WITH_ISOLATED, 2, 2, "refine-live", False, 16, None, 0)
    def test_generated_graphs(self, graph, seed, k, regime, constrained,
                              chunk, sweep, tie_base):
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        constraint = rng.integers(0, 2, n) if constrained else None
        start = rng.integers(0, k, n)
        common = dict(chunk=chunk, pin_sweep=sweep, tie_seed=seed + 100,
                      constraint=constraint)

        def call():
            backend = LocalBackend(graph, np.random.default_rng(seed))
            backend.tie_base = tie_base  # as on a rank that owns nodes >= tie_base
            if regime == "cluster":
                return run_sclp(
                    backend, np.arange(n, dtype=np.int64),
                    max(1, int(graph.vwgt.sum()) // 4), 3,
                    ordering="degree" if seed % 2 else "random", **common,
                )
            # eps = 0: overloaded blocks, evictions, ineligible winners
            return run_sclp(
                backend, start, max(1, int(graph.vwgt.sum()) // k), 3,
                ordering="random", refine=True,
                shares=regime == "refine-shares", k=k, **common,
            )

        assert phase_scan_vs_chunk_loop(call) >= 1

    def test_band_refinement(self):
        graph = grid_2d(16, 16)
        start = (np.arange(graph.num_nodes) % 16 >= 8).astype(np.int64)
        start[::7] ^= 1
        band = band_nodes(graph, start, 2)
        assert phase_scan_vs_chunk_loop(lambda: run_sclp(
            LocalBackend(graph, np.random.default_rng(1)), start,
            int(graph.vwgt.sum()) // 2 + 8, 3, ordering="random",
            refine=True, band=band, chunk=8,
        )) >= 1

    @pytest.mark.parametrize("size", [2, 3])
    def test_distributed_ranks(self, size):
        for regime, constrained, chunk, sweep in [
            ("cluster", True, 1, "full"),
            ("cluster", False, 16, "frontier"),
            ("refine-shares", False, 1, "full"),
            ("refine-shares", True, 16, None),
            ("refine-live", False, 3, None),
        ]:
            assert phase_scan_vs_chunk_loop(lambda: run_spmd(
                size, rank_lp, regime, constrained, chunk, sweep, seed=1,
            ).value) >= size

    def test_scan_chunk_is_kernels_scan_chunk(self):
        """One window on its own: the compiled ``scan_chunk`` and the
        NumPy one decide alike, flag the same labels and see the same
        margins; without the two tables (a full sweep's call) the
        decisions are the same.  The caps are integers, or a third of
        them as the budget shares once were: the twin compares against
        the float and the compiled kernel against its floor."""
        graph = rmat(8, seed=2)
        n = graph.num_nodes
        rng = np.random.default_rng(4)
        connected = np.flatnonzero(graph.degrees > 0)
        for trial in range(40):
            # up to 80 labels: bits l & 63 alias from 64 on
            space = int(rng.integers(1, 9)) if trial % 5 else int(rng.integers(60, 81))
            labels = rng.integers(0, space, n)
            nodes = rng.permutation(connected)[: int(rng.integers(1, 40))]
            used = np.bincount(labels, weights=graph.vwgt, minlength=space)
            cap = np.full(space, int(graph.vwgt.sum()) // space + 2)
            if trial % 3 == 0:
                cap = cap / 3
            head = (nodes, graph.xadj, graph.adjncy, graph.adjwgt, labels,
                    rng.integers(0, 2, n) if trial % 2 else None, graph.vwgt,
                    used.astype(np.int64))
            tail = (rng.random(nodes.size) < 0.3 if trial % 4 else None,
                    trial, (2**40 + 5) * (trial % 2), space)
            args = (*head, np.floor(cap).astype(np.int64), *tail)
            got = compiled_scan_chunk(*args)
            want = numpy_kernels.scan_chunk(*head, cap, *tail)
            target, blocked, margin, arcs = got
            assert target.dtype == np.int64 and blocked.dtype == np.uint64
            assert margin.dtype == np.int64 and (margin >= 0).all()
            for have, expect in zip(got[:3], want[:3]):
                np.testing.assert_array_equal(have, expect)
            assert arcs == want[3] and type(arcs) is int
            bare = compiled_scan_chunk(*args, flags=False)
            assert bare[1] is None and bare[2] is None
            np.testing.assert_array_equal(bare[0], target)
            assert bare[3] == arcs

    def test_out_of_core_store_counters(self, tmp_path):
        """A store-backed graph runs one compiled call per shard segment;
        its twin reads the same segments, so the labels, the per-phase
        counts and the store's counters agree — one ``arc_block`` per
        segment, as the spans count them."""
        from repro.graph.io import open_sharded, save_sharded

        graph = rmat(9, seed=5)
        save_sharded(graph, tmp_path / "shards", nodes_per_shard=64)

        def call(sharded):
            return lambda: run_sclp(
                LocalBackend(sharded, np.random.default_rng(0)),
                np.arange(graph.num_nodes, dtype=np.int64), 40, 3,
                ordering="node", chunk=32,
            )

        stats = {}
        for name in ("native", "twin"):
            sharded = open_sharded(tmp_path / "shards", max_resident_shards=2)
            with python_twins() if name == "twin" else contextlib.nullcontext():
                labels, spans, _ = traced_lp(call(sharded))
            stats[name] = (labels.tolist(), sharded.store.stats().as_dict(),
                           [(s["attrs"]["segments"], *(s["attrs"][a] for a in PHASE_ATTRS))
                            for s in spans])
            assert {s["attrs"]["loop"] for s in spans} == {"native: store segments"}
            assert stats[name][1]["gathers"] == sum(s["attrs"]["segments"] for s in spans)
        assert stats["native"] == stats["twin"]
        assert stats["native"][1]["gathers"] > 0

    def test_c_tie_hash_is_candidate_tie_hash(self):
        kernel = native._kernels().tie_hash
        rng = np.random.default_rng(3)
        full = np.iinfo(np.uint64).max
        for _ in range(20):
            n = int(rng.integers(1, 400))
            nodes = rng.integers(0, full, n, dtype=np.uint64, endpoint=True)
            labels = rng.integers(0, full, n, dtype=np.uint64, endpoint=True)
            seed = int(rng.integers(0, full, dtype=np.uint64, endpoint=True))
            out = np.empty(n, dtype=np.uint64)
            kernel(seed, n, nodes.ctypes.data, labels.ctypes.data, out.ctypes.data)
            np.testing.assert_array_equal(
                out, candidate_tie_hash(seed, nodes, labels)
            )

    def test_index_outside_its_table_raises_and_leaves_scratch_clean(self):
        graph = from_edges(3, [(0, 1), (1, 2)])
        labels = np.array([0, 1, 7], dtype=np.int64)  # 7 >= space
        scratch = {"acc": np.zeros(2, dtype=np.int64),
                   "mark": np.zeros(2, dtype=np.uint8),
                   "touched": np.empty(2, dtype=np.int64)}
        args = (
            np.array([1], dtype=np.int64), graph.xadj, graph.adjncy,
            graph.adjwgt, labels, None, graph.vwgt,
            np.zeros(2, dtype=np.int64), np.full(2, 9, dtype=np.int64), None,
            0, 0, 2,
        )
        with pytest.raises(ValueError, match="outside its table"):
            compiled_scan_chunk(*args, scratch=scratch)
        assert not scratch["acc"].any() and not scratch["mark"].any()
        with pytest.raises(TypeError, match="C-contiguous int64"):
            compiled_scan_chunk(args[0].astype(np.int32), *args[1:])

    @pytest.mark.parametrize("fault", ["order", "neighbour", "label"])
    def test_phase_scan_index_outside_its_table(self, fault):
        """A whole phase has the chunk kernel's error path: ValueError, and
        the accumulators are zero for whoever uses them next."""
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        n, space = graph.num_nodes, 2
        labels = np.array([0, 1, 0, 1], dtype=np.int64)
        adjncy = graph.adjncy.copy()
        order = np.array([1, 2, 0, 3], dtype=np.int64)
        if fault == "order":
            order[3] = n  # >= n_local
        elif fault == "neighbour":
            adjncy[graph.xadj[3]] = n  # >= n_total, met in the second window
        else:
            labels[3] = space  # >= space, a neighbour's label
        scan = native.PhaseScan(
            graph.xadj, labels, None, graph.vwgt, np.array([2, 2], dtype=np.int64),
            None, np.zeros(n, dtype=bool), n_local=n, space=space, bound=3,
            refine=True, frontier=True, tie_seed=0, tie_base=0, window=2,
        )
        scan.bind_arcs(0, adjncy, graph.adjwgt)
        masks = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        with pytest.raises(ValueError, match="outside its table"):
            scan(order, 2, np.full(space, 3, dtype=np.int64), None, None, *masks)
        assert not scan._scratch["acc"].any()
        assert not scan._scratch["mark"].any()
        with pytest.raises(TypeError, match="C-contiguous int64"):
            scan(order.astype(np.int32), 2, np.full(space, 3), None, None, *masks)
        with pytest.raises(TypeError, match="C-contiguous int64"):
            scan(order, 2, np.full(space, 3.0), None, None, *masks)


class TestFrontierRules:
    """The frontier's two wake-up rules on hand-built graphs, on the
    compiled ``PhaseScan`` and on its twin: each call below is one phase
    (or part of one) over the ``order`` given, chunk 1 unless said."""

    BOUND = 4

    @staticmethod
    def phase_scan(kind, graph, labels, bound, window=2, space=3, cap=None):
        n = graph.num_nodes
        cls = native.PhaseScan if kind == "native" else PythonPhaseScan
        used = np.bincount(labels, weights=graph.vwgt, minlength=space).astype(np.int64)
        scan = cls(
            graph.xadj, labels, None, graph.vwgt, used, None,
            np.zeros(n, dtype=bool), n_local=n, space=space, bound=bound,
            refine=True, frontier=True, tie_seed=0, tie_base=0, window=window,
        )
        scan.bind_arcs(0, graph.adjncy, graph.adjwgt)
        if cap is None:
            cap = np.full(space, bound, dtype=np.int64)
        masks = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)

        def run(order, active=(), chunk=1):
            masks[0].fill(False)
            masks[0][list(active)] = True
            masks[1].fill(False)
            moved, scanned, _, _ = scan(np.array(order, dtype=np.int64), chunk,
                                        cap, None, None, *masks)
            return moved, scanned, masks[1].copy()

        return run, used

    @pytest.mark.parametrize("kind", ["native", "twin"])
    def test_a_blocked_node_sleeps_until_its_label_has_room(self, kind):
        """Node 0 (label 0, one arc to label 0) has three arcs into label
        1, which is full: it stays, flagged on label 1, and leaves the
        frontier.  Node 5 leaves label 1 for label 2 and so makes room;
        node 0, dormant, is scanned in the first window that starts with
        that room — not in a window before, nor in the one that makes it."""
        graph = from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7)])
        start = np.array([0, 1, 1, 1, 0, 1, 2, 2], dtype=np.int64)
        for order, chunk, scanned_with_5 in (([0, 5], 1, 1), ([5, 0], 2, 1),
                                             ([5, 0], 1, 2)):
            labels = start.copy()
            run, used = self.phase_scan(kind, graph, labels, self.BOUND)
            assert used[1] == self.BOUND
            moved, scanned, woken = run([0], active=[0])
            assert (moved, scanned) == (0, 1) and labels[0] == 0
            assert not woken[0]  # blocked, not rescanned every phase
            assert run([0])[:2] == (0, 0)  # no room: not scanned
            moved, scanned, _ = run(order, active=[5], chunk=chunk)
            assert labels[5] == 2 and scanned == scanned_with_5
            if scanned == 1:  # the room came after 0's window: the next one
                assert used[1] == self.BOUND - 1 and labels[0] == 0
                assert run([0])[:2] == (1, 1)
            assert labels[0] == 1 and used[1] == self.BOUND

    @pytest.mark.parametrize("kind", ["native", "twin"])
    @pytest.mark.parametrize("space,wakes", [(64 * 64 + 1, False),
                                             (64 * 64 + 2, True)])
    def test_a_mask_of_more_than_64_labels_wakes_untried(self, kind, space,
                                                          wakes):
        """Node 0 (label 0, one arc there) has three arcs into the full label
        1 and so sleeps flagged on bit 1, which stands for the labels 1, 65,
        ... below ``space``: 64 of them, or 65.  None has room.  With 64 the
        node is looked at and sleeps on; with 65 it is scanned untried, so
        no wake-up test costs more than 64 fits checks."""
        graph = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        labels = np.array([0, 1, 1, 1, 0], dtype=np.int64)
        cap = np.full(space, self.BOUND, dtype=np.int64)
        cap[1::64] = 0
        cap[1] = 3
        run, used = self.phase_scan(kind, graph, labels, self.BOUND,
                                    space=space, cap=cap)
        assert used[1] == cap[1]
        moved, scanned, woken = run([0], active=[0])
        assert (moved, scanned) == (0, 1) and not woken[0]
        assert run([0])[:2] == (0, int(wakes))

    @pytest.mark.parametrize("kind", ["native", "twin"])
    def test_a_hub_wakes_when_its_movers_outweigh_its_margin(self, kind):
        """Hub 0 has eight arcs into its own label 0 and two into label 1:
        margin 6.  Its neighbours 1, 2, 3 each leave label 0 for label 2
        (two arcs there), each shifting the hub's strengths by 1 and 1.
        After two moves (2 * 2 < 6) the hub stays out of the frontier; the
        third spends the slack (6 - 3 * 2 = 0): the hub is marked for the
        next phase and rescanned by the later windows of this one."""
        edges = [(0, v) for v in range(1, 11)]
        edges += [(v, 9 + 2 * v + s) for v in (1, 2, 3) for s in (0, 1)]
        graph = from_edges(17, edges)
        labels = np.zeros(17, dtype=np.int64)
        labels[[9, 10]] = 1
        labels[11:] = 2
        run, _ = self.phase_scan(kind, graph, labels, 100)
        moved, scanned, woken = run([0], active=[0])
        assert (moved, scanned, labels[0]) == (0, 1, 0) and not woken[0]
        for mover in (1, 2):
            moved, scanned, woken = run([mover, 0], active=[mover])
            assert (moved, scanned, labels[mover]) == (1, 1, 2)
            assert not woken[0]
        moved, scanned, woken = run([3, 0], active=[3])
        assert (moved, labels[3]) == (1, 2)
        assert woken[0] and scanned == 2  # the hub, in the next window
        assert run([0], active=[0])[:2] == (0, 1)  # the next phase
        assert run([0])[:2] == (0, 0)  # its scans reset the slack: asleep


def metis_text(graph) -> bytes:
    buf = io.StringIO()
    write_metis(graph, buf)
    return buf.getvalue().encode("ascii")


def coarsest_level(graph, seed: int, text: bytes) -> list[np.ndarray]:
    """Every ``_coarse.c`` kernel once: a contraction, a recursive
    bisection of the quotient, k-way refinement, a matching, the quality
    sweep, an arc grouping, a ghost layout; and the ``_metis.c`` reader
    on ``text``, the graph as METIS text."""
    rng = np.random.default_rng(seed)
    n, _, node_weights, edge_weights, body, line = _metis_header(text)
    parsed = native.parse_metis(text, body, line, n, node_weights, edge_weights)
    vtxdist = balanced_vtxdist(graph.num_nodes, 3)
    layout = native.ghost_layout(
        vtxdist, 1, graph.xadj[vtxdist[1] : vtxdist[2] + 1] - graph.xadj[vtxdist[1]],
        graph.adjncy[graph.xadj[vtxdist[1]] : graph.xadj[vtxdist[2]]])
    grouped = native.group_arcs(
        graph.num_nodes, graph.adjncy, graph.arc_sources(), graph.adjwgt)
    coarse = contract(graph, rng.integers(0, graph.num_nodes // 3, graph.num_nodes)).coarse
    part = recursive_bisection(coarse, 5, rng)
    lmax = max_block_weight_bound(coarse, 5, 0.03)
    refined = greedy_kway_refine(coarse, part, 5, lmax, rng)
    return [
        coarse.xadj, coarse.adjncy, coarse.adjwgt, part, refined,
        heavy_edge_matching(coarse, rng, max_node_weight=lmax),
        np.array(native.partition_quality(
            graph.xadj, 0, graph.num_nodes, 0, graph.adjncy, graph.adjwgt,
            np.arange(graph.num_nodes, dtype=np.int64) % 7, 7)),
        *grouped, *layout, *parsed,
    ]


def test_threads_call_every_kernel_at_once():
    """Thread ranks run KaFFPaE side by side with the GIL released inside
    each call; scratch shared on the C side would show as a wrong array."""
    graphs = [rmat(10, seed=1), grid_2d(30, 30), rmat(9, seed=5)]
    texts = [metis_text(graph) for graph in graphs]
    alone = [coarsest_level(graph, seed, text)
             for seed, (graph, text) in enumerate(zip(graphs, texts))]
    wrong: list[tuple[int, int]] = []

    def worker(seed: int) -> None:
        for round_ in range(15):
            got = coarsest_level(graphs[seed], seed, texts[seed])
            if not all(np.array_equal(g, w) for g, w in zip(got, alone[seed])):
                wrong.append((seed, round_))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)
def test_the_source_is_strict_c99():
    """The kernels promise plain C99; hold them to that with every
    warning on (the build itself passes no -W flag): the translation unit
    the loader builds, and every source file by itself."""
    here = resources.files("repro.native")
    units = [native.source()] + [
        here.joinpath(name).read_bytes() for name in native.SOURCE_NAMES
    ]
    for unit in units:
        done = subprocess.run(
            [shutil.which("cc") or shutil.which("gcc"), "-std=c99", "-Wall",
             "-Wextra", "-Werror", "-pedantic", "-fsyntax-only", "-x", "c", "-"],
            input=unit, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")


def test_every_exported_function_is_bound_as_its_prototype():
    """The loader binds each non-static function of the source with the
    return type, the number of parameters and the pointer positions of its
    prototype (read here with a pattern of this test's own), and builds
    ``scan_phase_t`` with its fields in their order."""
    native.resolve()
    code = re.sub(r"/\*.*?\*/", " ", native.source().decode(), flags=re.S)
    found = re.findall(r"^(int64_t|void) (\w+)\((.*?)\)", code, re.M | re.S)
    assert {"scan_phase", "scan_chunk", "tie_hash", "metis_fill"} <= {
        name for _, name, _ in found}
    for kind, name, params in found:
        params = [] if params.strip() == "void" else params.split(",")
        symbol = getattr(native._lib, name)
        assert symbol.restype is (None if kind == "void" else ctypes.c_int64), name
        assert len(symbol.argtypes) == len(params), name
        assert [t is ctypes.c_void_p for t in symbol.argtypes] == [
            "*" in param for param in params], name
    typedef = re.search(r"typedef struct \{(.*?)\} scan_phase_t;", code, re.S)
    names = re.findall(r"(\w+)\s*(?=[,;])", typedef.group(1))
    assert [field for field, _ in native._PhaseTables._fields_] == names


# ----------------------------------------------------------------------
# The loader: build, cache, refuse
# ----------------------------------------------------------------------

GRAPH = rmat(8, seed=4)


def small_lp() -> list[int]:
    return run_sclp(
        LocalBackend(GRAPH, np.random.default_rng(0)),
        np.arange(GRAPH.num_nodes, dtype=np.int64), 12, 3, chunk=16,
    ).tolist()


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """The loader as in a fresh process on a machine with an empty cache
    (at ``tmp_path/cache``); the real state comes back afterwards."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_path", None)
    monkeypatch.setattr(native, "_failure", None)
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    return tmp_path / "cache"


def fake_compiler(tmp_path, monkeypatch, build_status: int) -> None:
    """A ``cc`` that answers ``--version`` and fails every build."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "cc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
        f'echo "fakecc: fatal: no can do" >&2\nexit {build_status}\n'
    )
    script.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


#: the cache is only reached once a compiler has been found
needs_cc = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)


class TestLoader:
    def test_the_source_ships_with_the_package(self):
        """Without package data a wheel install has no source to build
        and cannot run at all."""
        from fnmatch import fnmatch

        assert b"scan_phase(" in native.source()
        assert b"quotient_fill(" in native.source()
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[2] / "pyproject.toml"
        patterns = tomllib.loads(pyproject.read_text())["tool"]["setuptools"][
            "package-data"]["repro"]
        for name in native.SOURCE_NAMES:
            assert resources.files("repro.native").joinpath(name).is_file()
            assert any(fnmatch(f"native/{name}", p) for p in patterns)

    def test_builds_once_into_a_private_cache(self, cold):
        compiled_here = native.resolve()
        built = sorted(cold.iterdir())
        assert [p.name for p in built] == [os.path.basename(compiled_here)]
        assert built[0].suffix == ".so"
        assert cold.stat().st_mode & 0o777 == 0o700
        assert built[0].stat().st_mode & 0o022 == 0
        # a second resolution (a later process) finds the file, builds nothing
        stamp = built[0].stat().st_mtime_ns
        with mock.patch.object(native, "_lib", None):
            assert native.resolve() == compiled_here
        assert sorted(cold.iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def check_raises(self, cause: str, monkeypatch) -> None:
        """The first kernel use raises one error naming ``cause`` (and
        ``cc``); a later one raises it again without another attempt."""
        for attempt in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(native.KernelUnavailable) as caught:
                    small_lp()
            message = str(caught.value)
            assert cause in message and "cc" in message, message
            monkeypatch.setattr(native, "_build", None)  # never called again
        assert kernel_cache_leftovers() == []

    def test_no_compiler(self, cold, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        self.check_raises("no C compiler (cc) on PATH", monkeypatch)
        assert not cold.exists()

    def test_compiler_exits_1(self, cold, tmp_path, monkeypatch):
        fake_compiler(tmp_path, monkeypatch, build_status=1)
        self.check_raises("exited with status 1: fakecc: fatal", monkeypatch)
        assert list(cold.iterdir()) == []  # no partial or temporary file

    @needs_cc
    def test_cache_dir_cannot_be_created(self, cold, tmp_path, monkeypatch):
        (tmp_path / "cache").write_text("a file where the directory should go")
        self.check_raises("cache", monkeypatch)

    @needs_cc
    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root ignores directory permissions",
    )
    def test_cache_dir_read_only(self, cold, monkeypatch):
        cold.mkdir(mode=0o500)
        self.check_raises("Permission denied", monkeypatch)

    @needs_cc
    def test_foreign_owned_cache_is_refused(self, cold, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        self.check_raises(f"not owned by uid {uid + 1}", monkeypatch)

    def test_writable_shared_object_is_refused(self, cold, monkeypatch):
        built = native.resolve()
        os.chmod(built, 0o775)
        monkeypatch.setattr(native, "_lib", None)
        self.check_raises(f"{built} is group- or world-writable", monkeypatch)

    def test_two_cold_processes_leave_one_shared_object(self, tmp_path):
        code = "from repro import native\nprint(native.resolve())\n"
        env = dict(os.environ, HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-W", "error", "-c", code], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        paths = {out.strip() for out, _ in outs}
        assert len(paths) == 1
        cache = tmp_path / ".cache" / "repro" / "native"
        assert [str(p) for p in cache.iterdir()] == list(paths)

    def test_without_a_compiler_only_the_first_kernel_use_fails(self, tmp_path):
        """``PATH`` and ``HOME`` empty: ``import repro`` and ``repro
        --help`` work, ``partition_graph`` raises the one named error, and
        the cache holds no temporary file."""
        (tmp_path / "bin").mkdir()
        (tmp_path / "home").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"), HOME=str(tmp_path / "home"),
                   PYTHONPATH=os.pathsep.join(sys.path))

        def run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], env=env, text=True,
                                  capture_output=True, timeout=120)

        assert run("-W", "error", "-c", "import repro").returncode == 0
        helped = run("-m", "repro", "--help")
        assert helped.returncode == 0 and "partition" in helped.stdout, helped.stderr
        failed = run("-c", (
            "from repro import partition_graph, native\n"
            "from repro.generators import grid_2d\n"
            "try:\n"
            "    partition_graph(grid_2d(8, 8), 2)\n"
            "except native.KernelUnavailable as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no error')\n"
        ))
        assert failed.returncode == 0, failed.stderr
        assert "no C compiler (cc) on PATH" in failed.stdout
        assert not list((tmp_path / "home").rglob("*.tmp"))


# ----------------------------------------------------------------------
# The identity suites once more, on the Python twins
# ----------------------------------------------------------------------

def traced_loops(fn) -> set[str]:
    """The ``loop`` of every ``lp.iteration`` span ``fn`` records, plus the
    header's ``lp_kernel``."""
    _, spans, header = traced_lp(fn)
    assert spans
    return {s["attrs"]["loop"] for s in spans} | {header["lp_kernel"]}


@pytest.mark.usefixtures("numpy_kernel")
class TestSuitesOnTheNumpyKernel:
    def test_the_fixture_selects_numpy_without_warning(self):
        for name, twin in twin_bindings().items():
            assert getattr(native, name) is twin, name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small_lp()

    def test_chunk_1_is_the_oracle(self):
        suite = seq_suite.TestSequentialEquivalence()
        suite.test_cluster_mode("rmat", 0)
        suite.test_refine_mode(3)
        suite.test_constraint_mode()
        suite.test_band_mode()
        dist = dist_suite.TestDistributedEquivalence()
        dist.test_cluster_mode(2, True)
        dist.test_refine_mode(2)

    @pytest.mark.parametrize("refine", [False, True])
    def test_frontier_equals_full(self, refine):
        graph = rmat(8, seed=6)
        n = graph.num_nodes
        start = (
            np.random.default_rng(2).integers(0, 4, n) if refine
            else np.arange(n, dtype=np.int64)
        )
        bound = int(graph.vwgt.sum()) // (4 if refine else 20) + 4
        runs = [
            run_sclp(
                LocalBackend(graph, np.random.default_rng(5)), start, bound, 4,
                refine=refine, chunk=16, pin_sweep=sweep, tie_seed=9,
            )
            for sweep in ("full", "frontier")
        ]
        assert np.array_equal(*runs)

    def test_goldens(self):
        lp = golden_suite.TestSequentialLP()
        lp.test_cluster("rmat10", 64, "full", "full")
        lp.test_refine("rmat10", 64, "frontier", "frontier")
        golden_suite.test_band_refinement("rgg10")
        golden_suite.test_parallel_lp("ba10", 4, 64, "frontier", "frontier", "refine")
        golden_suite.test_multilevel("rmat10", "fast")
        golden_suite.test_parallel_partition("rmat10", "fast", 4)

    def test_quotient_and_kaffpa_suites(self):
        """The coarsest level on scipy's grouping and KaFFPa's Python
        loops: their oracles and plain cases (the goldens above reach
        them through ``kaffpa_partition`` and ``contract`` too; their
        hypothesis differentials compare the two in their own modules)."""
        for seed in range(4):
            graph = rmat(7, seed=seed)
            labels = np.random.default_rng(seed).integers(0, 40, graph.num_nodes)
            coarse = contract(graph, labels).coarse
            want = quotient_suite.lexsort_contract(graph, labels)
            got = (coarse.xadj, coarse.adjncy, coarse.vwgt, coarse.adjwgt)
            for have, expect in zip(got, want):
                np.testing.assert_array_equal(have, expect)
        initial_suite.TestGreedyGrowingMatchesOracle().test_same_partition_and_rng_state(7)
        initial_suite.TestRecursiveBisection().test_balanced_kway(7)
        matching = matching_suite.TestMatchingValidity()
        matching.test_weight_bound_blocks_heavy_pairs()
        matching.test_constraint_blocks_cross_edges()
        matching_suite.TestMatchingContraction().test_mesh_shrinks_near_half()
        driver_suite.TestGreedyKway().test_improves_random_partition()
        driver = driver_suite.TestKaffpaDriver()
        driver.test_seed_partition_never_worsened()
        driver.test_constraint_respected_through_multilevel()
        driver.test_seed_is_protected_without_a_constraint()

    def test_quality_suite(self, two_triangles, weighted_square):
        """Every metric of ``repro.metrics`` on the NumPy sweep."""
        edge = quality_suite.TestEdgeCut()
        edge.test_bridge_cut(two_triangles)
        edge.test_weighted_cut(weighted_square)
        edge.test_complete_graph_bisection()
        volume = quality_suite.TestBoundaryAndVolume()
        volume.test_comm_volume_counts_distinct_blocks()
        volume.test_comm_volume_of_bridge(two_triangles)
        quality_suite.TestEvaluatePartition().test_bundle(two_triangles)
        quality_suite.TestOverweightCut().test_balanced_beats_overweight_then_cut_decides(
            two_triangles)
        quality_kernel_suite.test_the_paper_metrics_on_a_grid()
        quality_kernel_suite.test_distributed_cut_equals_the_sequential_cut(2)
        refuses = quality_kernel_suite.TestTheEvaluatorRefusesWhatItCannotScore()
        refuses.test_a_label_at_or_above_k()
        refuses.test_a_negative_label()

    def test_local_equals_spmd_equals_process(self, no_shm_leak):
        """The process ranks are new interpreters on the compiled kernels:
        their leg compares those with the twins in this process."""
        cross_suite.test_cluster_iteration_identity("rmat9", 64, None, run_spmd)
        cross_suite.test_refine_iteration_identity(
            "rmat9", 64, "frontier", run_spmd_processes
        )
        cross_suite.test_process_matches_threads_per_iteration(
            no_shm_leak, 4, "refine", 64, "frontier"
        )


def test_ranks_run_the_compiled_kernel_by_default():
    graph = cross_suite.make_graph("rmat9")
    assert traced_loops(lambda: run_spmd_processes(
        2, cross_suite._pcluster, None, 2, graph=graph, seed=5,
    )) == {"native"}
    assert kernel_cache_leftovers() == []
