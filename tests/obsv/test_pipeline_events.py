"""Integration tests: the instrumented pipeline under a live tracer.

These run the real parallel partitioner (4 simulated PEs)
and the sequential multilevel path with tracing armed, then assert the
recorded stream tells the same story as the returned result objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import partition_graph
from repro.dist.dist_partitioner import parallel_partition
from repro.dist.runtime import SpmdDeadlockError, run_spmd
from repro.generators import rmat
from repro.obsv import (
    RUN_SUMMARY_SCHEMA,
    TRACER,
    build_run_summary,
    render_analysis,
    to_chrome_trace,
    validate_run_summary,
)
from repro.obsv.export import SIM_PID

PES = 4


@pytest.fixture(scope="module")
def traced_parallel_run():
    """One traced fast-config parallel run shared by the assertions below."""
    from repro.core.config import fast_config

    TRACER.disable()
    TRACER.reset()
    graph = rmat(10, seed=1)
    TRACER.enable()
    try:
        result = parallel_partition(graph, fast_config(k=4), num_pes=PES, seed=0)
    finally:
        TRACER.disable()
    # what ``repro partition --trace`` writes: the header, then the stream
    records = [dict(TRACER.header)] + TRACER.snapshot()
    yield graph, result, records
    TRACER.reset()


def _events(records, name):
    return [r for r in records if r["type"] == "event" and r["name"] == name]


def _spans(records, name=None):
    return [
        r for r in records
        if r["type"] == "span" and (name is None or r["name"] == name)
    ]


class TestParallelPipelineEvents:
    def test_coarsen_events_match_coarse_sizes(self, traced_parallel_run):
        _graph, result, records = traced_parallel_run
        events = _events(records, "coarsen.level")
        # one summary event per contraction level per cycle (rank 0 only)
        assert len(events) == len(result.coarse_sizes)
        assert [e["attrs"]["coarse_nodes"] for e in events] == list(result.coarse_sizes)
        for e in events:
            assert e["attrs"]["shrink"] == pytest.approx(
                e["attrs"]["fine_nodes"] / e["attrs"]["coarse_nodes"]
            )

    def test_final_refined_cut_matches_result(self, traced_parallel_run):
        _graph, result, records = traced_parallel_run
        events = _events(records, "uncoarsen.level")
        assert events
        last_cycle = max(e["attrs"]["cycle"] for e in events)
        final = [
            e for e in events
            if e["attrs"]["cycle"] == last_cycle and e["attrs"]["level"] == 0
        ]
        assert len(final) == 1
        assert final[0]["attrs"]["cut_refined"] == result.cut

    def test_initial_cut_events_per_cycle(self, traced_parallel_run):
        _graph, _result, records = traced_parallel_run
        events = _events(records, "initial.cut")
        cycles = {e["attrs"]["cycle"] for e in events}
        assert len(events) == len(cycles)  # exactly one per cycle (rank 0)
        # one shape for both pipelines; KaFFPaE's output is not refined
        # on the coarsest graph, so the two cuts agree here
        for e in events:
            assert set(e["attrs"]) == {"cycle", "nodes", "cut", "cut_refined"}
            assert e["attrs"]["cut_refined"] == e["attrs"]["cut"]

    def test_chrome_trace_has_one_track_per_rank(self, traced_parallel_run):
        _graph, _result, records = traced_parallel_run
        trace = to_chrome_trace(records)
        sim_tracks = {
            e["tid"] for e in trace["traceEvents"]
            if e["pid"] == SIM_PID and e["ph"] == "X"
        }
        assert sim_tracks == set(range(PES))
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"coarsen.level", "lp.iteration", "comm.allreduce"} <= names

    def test_every_rank_emits_pipeline_spans(self, traced_parallel_run):
        _graph, _result, records = traced_parallel_run
        for name in ("vcycle", "coarsening", "initial", "refinement",
                     "lp.iteration", "contract"):
            ranks = {r["rank"] for r in _spans(records, name)}
            assert ranks == set(range(PES)), name

    def test_collective_spans_tagged(self, traced_parallel_run):
        _graph, _result, records = traced_parallel_run
        comm_spans = [s for s in _spans(records) if s["name"].startswith("comm.")]
        assert comm_spans
        for s in comm_spans[:200]:
            assert s["name"] == "comm." + s["attrs"]["op"]
            assert s["attrs"]["seq"] >= 1
            assert s["attrs"]["bytes"] >= 0
            assert s["sim_ts"] is not None
        # SPMD-DIV recognises collectives by name: an op the runtime
        # executes must be one the linter knows (tags stripped).
        from repro.analysis.rules import COLLECTIVES

        ran = {s["attrs"]["op"].split("[", 1)[0] for s in comm_spans}
        assert ran <= COLLECTIVES, ran - COLLECTIVES

    def test_lp_iteration_spans_carry_moves(self, traced_parallel_run):
        _graph, _result, records = traced_parallel_run
        lp = _spans(records, "lp.iteration")
        assert lp
        assert all("moved" in s["attrs"] for s in lp)
        assert any(s["attrs"]["moved"] > 0 for s in lp)
        assert {s["attrs"]["mode"] for s in lp} <= {"cluster", "refine"}

    def test_report_matches_returned_metrics(self, traced_parallel_run):
        _graph, result, records = traced_parallel_run
        summary = build_run_summary(records)
        assert validate_run_summary(summary) == []
        assert summary["schema"] == RUN_SUMMARY_SCHEMA
        assert summary["header"]["lp_kernel"] == "native"
        assert summary["critical_path"]["top_segments"]
        assert summary["comm"]["collectives"] > 0
        # the last cycle's refined cut on the input graph is the result's
        assert summary["levels"][-1]["level"] == 0
        assert summary["levels"][-1]["cut_refined"] == result.cut
        coarsen = _events(records, "coarsen.level")
        assert summary["counts"]["coarsen.levels"] == len(coarsen) > 0
        # every contraction's shrink factor sits on the row of its coarse side
        assert sorted(r["shrink"] for r in summary["levels"] if r["level"] > 0) \
            == sorted(e["attrs"]["shrink"] for e in coarsen)
        full = render_analysis(summary)
        assert f"{result.cut:,}" in full
        for section in ("V-cycle 0", "per-phase time", "per-rank load", "counts"):
            assert section in full


class TestPerOpCommStats:
    def test_breakdown_sums_to_aggregates(self):
        def program(comm):
            comm.barrier()
            comm.allreduce(comm.rank)
            comm.allgather(comm.rank)
            comm.bcast("payload" if comm.rank == 0 else None, root=0)
            comm.alltoall([np.arange(4, dtype=np.int64)] * comm.size)
            comm.alltoall([np.arange(2, dtype=np.int64)] * comm.size)
            return dict(comm.stats.per_op), comm.stats.collectives, comm.stats.bytes_sent

        res = run_spmd(PES, program, seed=0)
        for per_op, collectives, bytes_sent in res.per_rank:
            assert sum(c for c, _b in per_op.values()) == collectives
            assert sum(b for _c, b in per_op.values()) == bytes_sent
            assert per_op["alltoall"][0] == 2
            assert per_op["alltoall"][1] == bytes_sent > 0
            assert per_op["barrier"] == (1, 0)

    def test_partitioner_run_keeps_identity(self, traced_parallel_run):
        # the real pipeline exercises every collective; the recorded comm
        # spans must agree with the per-rank span counts in the stream
        _graph, _result, records = traced_parallel_run
        per_rank = {}
        for s in records:
            if s["type"] == "span" and s["name"].startswith("comm."):
                per_rank[s["rank"]] = per_rank.get(s["rank"], 0) + 1
        assert set(per_rank) == set(range(PES))
        # SPMD: every rank executed the same number of collectives
        assert len(set(per_rank.values())) == 1


class TestWatchdogTraceContext:
    def test_deadlock_error_names_last_span(self):
        TRACER.enable()

        def program(comm):
            if comm.rank != 0:
                with TRACER.span("stuck.section", comm=comm, detail=7):
                    comm.barrier()  # rank 0 never joins
            return None

        try:
            with pytest.raises(SpmdDeadlockError) as exc_info:
                run_spmd(PES, program, seed=0, timeout=2.0)
        finally:
            TRACER.disable()
        message = str(exc_info.value)
        assert "last trace span: stuck.section(detail=7)" in message


class TestSequentialPipelineEvents:
    def test_sequential_run_emits_rankless_events(self):
        graph = rmat(9, seed=2)
        TRACER.enable()
        try:
            result = partition_graph(graph, k=4, preset="minimal", num_pes=1, seed=0)
        finally:
            TRACER.disable()
        records = TRACER.snapshot()
        coarsen = _events(records, "coarsen.level")
        uncoarsen = _events(records, "uncoarsen.level")
        assert coarsen and uncoarsen
        assert all(e["rank"] is None for e in coarsen + uncoarsen)
        # levels pair up: every contraction is undone exactly once per cycle
        assert {(e["attrs"]["cycle"], e["attrs"]["level"]) for e in coarsen} == \
            {(e["attrs"]["cycle"], e["attrs"]["level"]) for e in uncoarsen}
        final_cycle = max(e["attrs"]["cycle"] for e in uncoarsen)
        final = [e for e in uncoarsen
                 if e["attrs"]["cycle"] == final_cycle and e["attrs"]["level"] == 0]
        # last cycle's level-0 refined cut can only be improved by the
        # best-of-cycles rule, never worsened
        assert final[0]["attrs"]["cut_refined"] >= result.cut
        for e in _events(records, "initial.cut"):
            assert set(e["attrs"]) == {"cycle", "nodes", "cut", "cut_refined"}
        summary = build_run_summary(records)
        assert "V-cycle 0" in render_analysis(summary)
        # a rank-less trace is the extent of its spans (it read 0.0)
        assert 0 < summary["wall_time_s"] <= max(
            s["wall_ts"] + s["wall_dur"] for s in _spans(records)
        )

    @pytest.mark.parametrize("num_pes", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_vcycle_builds_on_the_best_before_it(self, seed, num_pes):
        """Paper §IV-D: the previous partition is protected and seeds the
        coarsest level, so a cycle starts uncoarsening no worse than the
        best partition found so far (before: 1065 after 942 at seed 0).
        Both pipelines keep the best cycle in one loop, so the rule holds
        at every p (p = 2, seed 0: 969, 929, 915, 910, 909)."""
        from repro.generators import delaunay

        TRACER.enable()
        try:
            result = partition_graph(delaunay(12, seed=1), 16, preset="eco", seed=seed,
                                     num_pes=num_pes)
        finally:
            TRACER.disable()
        records = TRACER.snapshot()
        assert result.feasible
        start = {e["attrs"]["cycle"]: e["attrs"]["cut"]
                 for e in _events(records, "initial.cut")}
        final = {e["attrs"]["cycle"]: e["attrs"]["cut_refined"]
                 for e in _events(records, "uncoarsen.level")
                 if e["attrs"]["level"] == 0}
        assert sorted(start) == sorted(final) == list(range(5))
        for cycle in range(1, 5):
            assert start[cycle] <= min(final[c] for c in range(cycle))
            assert final[cycle] <= final[cycle - 1]
        assert result.cut == final[4]

    def test_standalone_coarsen_emits_level_spans(self):
        # coarsen() is the driver's level loop with no cycle around it
        from repro.core import coarsen, fast_config

        TRACER.enable()
        try:
            hierarchy = coarsen(rmat(9, seed=2), fast_config(k=2),
                                np.random.default_rng(0), cluster_factor=14.0)
        finally:
            TRACER.disable()
        spans = [s for s in _spans(TRACER.snapshot(), "coarsen.level")
                 if not s["attrs"].get("stalled")]
        assert len(spans) == hierarchy.depth > 0
        assert {s["attrs"]["cycle"] for s in spans} == {None}

    @staticmethod
    def _traced_sequential(chunk):
        from repro.core.config import fast_config

        TRACER.reset()
        TRACER.enable()
        try:
            partition_graph(
                rmat(10, seed=2), k=4, num_pes=1, seed=0,
                config=fast_config(k=4, lp_chunk_size=chunk),
            )
        finally:
            TRACER.disable()
        return [dict(TRACER.header)] + TRACER.snapshot()

    def test_lp_chunk_size_reaches_the_sequential_engine(self):
        # Regression: lp_chunk_size was silently ignored at num_pes=1 (the
        # local V-cycle backends never passed it on).  The finest level of
        # rmat(10) scans up to 1024 nodes, so its 32-refreshes cap (<= 32)
        # leaves a request of 8 or 16 alone.
        largest = {}
        for chunk in (8, 16):
            iterations = _spans(self._traced_sequential(chunk), "lp.iteration")
            assert iterations, "sequential run recorded no LP iterations"
            largest[chunk] = max(s["attrs"]["chunk_size"] for s in iterations)
        assert largest == {8: 8, 16: 16}

    def test_sequential_summary_says_which_path_ran(self, tmp_path):
        from repro.graph import open_sharded, save_sharded
        from repro.obsv import build_run_summary, validate_run_summary

        records = self._traced_sequential(64)
        iterations = _spans(records, "lp.iteration")
        assert iterations
        for span in iterations:
            # the sweep follows from the mode
            assert span["attrs"]["sweep"] == {
                "cluster": "full", "refine": "frontier",
            }[span["attrs"]["mode"]]
            assert span["attrs"]["chunk_size"] >= 1
        summary = build_run_summary(records)
        assert not validate_run_summary(summary)
        # ... on the one kernel, by one of two loops: one compiled call
        # per phase on a resident graph, one per shard segment on a store
        assert summary["header"]["lp_kernel"] == "native"
        assert {point["loop"] for point in summary["convergence"]} == {"native"}
        save_sharded(rmat(10, seed=2), tmp_path / "shards", nodes_per_shard=128)
        TRACER.reset()
        TRACER.enable()
        try:
            partition_graph(open_sharded(tmp_path / "shards"), k=4, seed=0)
        finally:
            TRACER.disable()
        stored = build_run_summary([dict(TRACER.header)] + TRACER.snapshot())
        assert {point["loop"] for point in stored["convergence"]} == {
            "native: store segments"}
        assert all(s["attrs"]["segments"] >= 8  # 1024 nodes in shards of 128
                   for s in _spans(TRACER.snapshot(), "lp.iteration"))
        assert {point["sweep"] for point in summary["convergence"]} == {
            "full", "frontier",
        }
        assert all(
            point["sweep"] and point["chunk_size"]
            for point in summary["convergence"]
        )
