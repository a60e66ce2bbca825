"""Self-check of the end-to-end benchmark (run explicitly, not in tier-1):

    python -m pytest benchmarks/e2e/test_selfcheck.py

Two ``--quick`` passes (small instances, two timed ops, under a minute
each) check the benchmark against its own contract: the printed names
are the names in ``BENCHMARK.json``, spans nest and their self times add
up to the op, every count repeats from one run to the next, and the
verifier turns down partitions the API would let through.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAMES = [w.name for w in workloads.WORKLOADS]


def quick_pass(out: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(f"pass{i}") for i in range(2)]
    return [(quick_pass(out), out) for out in outs]


def test_workloads_are_the_declared_ones():
    assert NAMES == [w["name"] for w in SPEC["workloads"]]


def test_printed_names_and_units_are_those_of_benchmark_json(passes):
    stdout, _ = passes[0]
    printed = {name: {} for name in NAMES}
    for line in stdout.splitlines():
        words = line.split()
        if line.startswith("  ") and words[0] in printed:
            printed[words[0]][words[1]] = words[3]
    for name in NAMES:
        assert printed[name].pop("fail_share") == "ratio"
        assert printed[name] == UNITS, name
    last = json.loads(stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_spans_nest_and_self_times_add_up_to_the_op(passes):
    _, out = passes[0]
    for name in NAMES:
        lanes = [json.loads(line) for line in (out / f"{name}.spans.jsonl").read_text().splitlines()]
        own = spans.self_times(lanes)
        for span in lanes:
            assert set(span) >= {"name", "start", "end", "parent", "op", "rank"}
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = lanes[span["parent"]]
                assert parent["op"] == span["op"]
                if parent["rank"] == span["rank"]:  # one clock, one stack
                    assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        roots = [i for i, s in enumerate(lanes)
                 if s["name"] in (spans.OP_ROOT, spans.RANK_ROOT)]
        assert [lanes[i]["name"] for i in roots].count(spans.OP_ROOT) == 1
        for root in roots:
            rank = lanes[root]["rank"]
            total = sum(t for t, s in zip(own, lanes) if s["rank"] == rank)
            wall = lanes[root]["end"] - lanes[root]["start"]
            assert total == pytest.approx(wall, rel=0.01), (name, rank)


def test_counts_and_cuts_repeat_across_runs(passes):
    first, second = (json.loads((out / "results.json").read_text())["workloads"]
                     for _, out in passes)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name in NAMES:
        assert first[name]["cuts"] == second[name]["cuts"], name
        for metric in counts:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (
                name, metric)


def test_compare_accepts_two_passes_of_one_commit(passes):
    (_, a), (_, b) = passes
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(a / "results.json"), str(b / "results.json")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert "differs" not in done.stdout, done.stdout


def test_verifier_rejects_what_the_api_lets_through():
    from repro.generators import rmat
    from repro.graph import check_partition, max_block_weight_bound
    from repro.metrics import edge_cut

    graph, k = rmat(9, seed=1), 8
    zeros = np.zeros(graph.num_nodes, dtype=np.int64)
    with pytest.raises(workloads.OpFailure, match="balance violated"):
        workloads.verify(graph, zeros, k, edge_cut(graph, zeros))

    # Balanced stripes, then block 0 grown to one node over Lmax.
    over = np.arange(graph.num_nodes, dtype=np.int64) * k // graph.num_nodes
    lmax = max_block_weight_bound(graph, k, workloads.EPSILON)
    over[: lmax + 1] = 0
    check_partition(graph, over, k, epsilon=None)  # what partition_graph checks
    with pytest.raises(workloads.OpFailure, match="balance violated"):
        workloads.verify(graph, over, k, edge_cut(graph, over))

    fine = np.arange(graph.num_nodes, dtype=np.int64) * k // graph.num_nodes
    cut, imbalance = workloads.verify(graph, fine, k, edge_cut(graph, fine))
    assert cut == edge_cut(graph, fine) and imbalance <= workloads.EPSILON
    with pytest.raises(workloads.OpFailure, match="reported cut"):
        workloads.verify(graph, fine, k, cut + 1)
