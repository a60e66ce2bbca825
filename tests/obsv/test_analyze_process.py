"""Analyze over *merged process-backend traces* (satellite gate).

A p=4 ``run_spmd_processes`` run records one tracer per worker; the
parent folds the buffers in via :meth:`Tracer.absorb`.  Everything the
analytics layer consumes must survive that merge: the load table, the
critical path and the comm matrix must see all four ranks, and the
per-rank ``mem.rank`` RSS events — real per-process samples — must
arrive nonzero.  And because every count in ``run.json`` is derived from
the merged stream, a process-backend summary counts exactly what the
thread backend's does.

Programs live at module level: a rank unpickles them by reference,
importing this module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import partition_graph
from repro.dist.dgraph import DistGraph, balanced_vtxdist
from repro.dist.runtime import run_spmd_processes
from repro.engine import SpmdBackend, run_sclp
from repro.generators import rmat
from repro.generators.mesh import grid_2d
from repro.obsv import (
    TRACER,
    build_run_summary,
    comm_matrix,
    critical_path,
    rank_load,
    rank_memory,
    render_analysis,
    validate_run_summary,
)

P = 4


def _traced_lp_program(comm, graph):
    """Cluster LP over the shared CSR: emits lp.iteration + comm spans."""
    dgraph = DistGraph.from_global(
        graph, balanced_vtxdist(graph.num_nodes, comm.size), comm.rank
    )
    init = dgraph.to_global(np.arange(dgraph.n_total, dtype=np.int64))
    labels = run_sclp(SpmdBackend(dgraph, comm), init, 300, 3,
                      tie_seed=int(comm.rng.integers(0, 2**63 - 1)))
    return int(np.asarray(labels).sum())


@pytest.fixture(scope="module")
def merged_trace():
    """(records, SpmdResult) of a traced p=4 process-backend LP run."""
    graph = grid_2d(12, 12)
    TRACER.disable()
    TRACER.reset()
    TRACER.enable()
    try:
        result = run_spmd_processes(P, _traced_lp_program, graph=graph, seed=0)
    finally:
        TRACER.disable()
    records = [dict(TRACER.header)] + TRACER.snapshot()
    TRACER.reset()
    return records, result


def test_load_table_sees_all_ranks(merged_trace):
    records, _ = merged_trace
    load = rank_load(records)
    assert sorted(load) == list(range(P))
    for row in load.values():
        assert row["collectives"] > 0
    sections = render_analysis(build_run_summary(records)).split("\n\n")
    (table,) = [s for s in sections if s.startswith("per-rank load")]
    assert len(table.splitlines()) >= 2 + P  # title + header + one row per rank


def test_lp_iteration_spans_from_every_worker(merged_trace):
    records, _ = merged_trace
    lp_ranks = {
        r.get("rank") for r in records
        if r.get("type") == "span" and r.get("name") == "lp.iteration"
    }
    assert lp_ranks == set(range(P))


def test_critical_path_sees_all_ranks_and_sums(merged_trace):
    records, _ = merged_trace
    path = critical_path(records)
    assert path["ranks"] == list(range(P))
    assert not path["truncated"]
    assert path["total"] > 0
    segment_sum = sum(seg["dur"] for seg in path["segments"])
    assert segment_sum == pytest.approx(path["total"], rel=1e-9, abs=1e-9)


def test_comm_matrix_identity_across_processes(merged_trace):
    records, result = merged_trace
    matrix = comm_matrix(records)
    assert matrix["size"] == P
    for rank in range(P):
        off_diagonal = sum(
            matrix["total"][rank][dest] for dest in range(P) if dest != rank
        )
        assert off_diagonal == result.stats[rank].bytes_sent
    # the LP label exchange is visible as a tagged op
    assert any(op.startswith("alltoall") for op in matrix["per_op"])


def test_per_rank_rss_survives_absorb(merged_trace):
    records, _ = merged_trace
    memory = rank_memory(records)
    assert sorted(memory["per_rank"]) == [str(r) for r in range(P)]
    for row in memory["per_rank"].values():
        assert row["peak_rss_bytes"] > 0  # real per-worker VmHWM
        assert row["shared"] is False  # each rank its own OS process
    assert memory["peak_rss_bytes"] > 0


def test_every_rank_launch_ends_at_its_program(merged_trace):
    """One ``launch`` span per rank, from the parent's ``start()`` to the
    program entry: it ends before the rank's first collective."""
    records, _ = merged_trace
    spans = [r for r in records if r.get("type") == "span"]
    launches = {s["rank"]: s for s in spans if s["name"] == "launch"}
    assert sorted(launches) == list(range(P))
    for rank, launch in launches.items():
        assert launch["wall_dur"] > 0 and launch["sim_dur"] is None
        first_comm = min(s["wall_ts"] for s in spans
                         if s["rank"] == rank and s["name"].startswith("comm."))
        assert launch["wall_ts"] + launch["wall_dur"] <= first_comm
    summary = build_run_summary(records)
    assert summary["phases"]["launch"] == {"sim": None, "wall": launches[0]["wall_dur"]}


def test_run_summary_over_merged_trace(merged_trace):
    records, _ = merged_trace
    summary = build_run_summary(records)
    assert validate_run_summary(summary) == []
    assert summary["header"]["backend"] == "process"
    assert summary["header"]["p"] == P
    assert summary["memory"]["peak_rss_bytes"] > 0
    assert summary["comm"]["matrix"]["size"] == P
    assert len(summary["convergence"]) > 0


def _traced_summary(backend, num_pes):
    TRACER.reset()
    TRACER.enable()
    try:
        partition_graph(rmat(11, seed=1), 4, preset="fast", seed=0,
                        num_pes=num_pes, backend=backend)
    finally:
        TRACER.disable()
    summary = build_run_summary([dict(TRACER.header)] + TRACER.snapshot())
    assert validate_run_summary(summary) == []
    return summary


def test_spmd_and_process_summaries_count_alike():
    """One call, three backends: the counts mean the same on each.

    The pinned numbers are what the thread backend's metrics registry
    reported for this call before it was deleted; worker processes never
    shipped theirs back, so the process summary had ``None`` for both
    ``comm`` counts although its merged ``comm.*`` spans say the same.
    (``recv_bytes`` is 64 below the registry's number since KaFFPaE's
    fitness key lost its objective slot: 8 bytes per key in the winner
    allgather, 2 keys received by each of 2 ranks in each of 2 V-cycles.
    Since the pipelines set rmat11's 500 isolated nodes apart, the ranks
    partition 1 548 nodes: 352 -> 334 collectives, 1 039 292 -> 799 892
    bytes, 62 -> 64 LP iterations, 5 652 -> 5 912 moved nodes.  Since one
    loop keeps the best V-cycle on both pipelines, each rank scores every
    cycle with two allreduces, block weights and cut, and seeds the next
    cycle with ghost entries it already holds instead of a halo exchange:
    334 -> 340 collectives, 799 892 -> 789 356 bytes; no label moved.
    Since the traced per-level allreduce of the coarse edges also carries
    the heaviest coarse node, each rank receives 8 more bytes per level:
    2 levels in each of 2 V-cycles on each of 2 ranks, 789 356 -> 789 420.
    Since a contraction level makes 4 collectives instead of 7 (no halo
    exchange of the coarse map, one allgather for exscan + allreduce,
    node weights in the arc shuffle), an LP phase one allreduce instead
    of two under budget shares, and a level's ghost weights are exchanged
    once instead of once per LP call: 340 -> 266 collectives, 789 420 ->
    733 268 bytes; no label moved.)
    """
    spmd = _traced_summary("spmd", 2)
    process = _traced_summary("process", 2)
    assert spmd["header"]["backend"] == "spmd"
    assert process["header"]["backend"] == "process"
    assert spmd["comm"]["collectives"] == process["comm"]["collectives"] == 266
    assert spmd["comm"]["recv_bytes"] == process["comm"]["recv_bytes"] == 733_268
    assert spmd["counts"] == process["counts"]
    assert spmd["counts"]["isolated_nodes"] == 500
    assert spmd["counts"]["lp.iterations"] == 64
    assert spmd["counts"]["lp.moved_nodes"] == 5912
    assert spmd["levels"] == process["levels"]
    assert spmd["quality"]["cut"] == process["quality"]["cut"]
    assert spmd["quality"]["feasible"] is process["quality"]["feasible"] is True
    # only process ranks are launched
    assert process["phases"]["launch"]["wall"] > 0
    assert spmd["phases"]["launch"] == {"sim": None, "wall": None}
    # a sequential run has no collectives, and says so with a number
    local = _traced_summary(None, 1)
    assert local["phases"]["launch"] == {"sim": None, "wall": None}
    assert (local["comm"]["collectives"], local["comm"]["recv_bytes"]) == (0, 0)
    assert local["counts"]["lp.iterations"] > 0
