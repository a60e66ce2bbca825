"""End-to-end partition benchmark: wall, cut and memory per ``partition_graph`` call.

    python benchmarks/e2e/run.py [--seed S] [--workload NAME]... [--seconds T]
                                 [--reps N] [--trace 0|1] [--out DIR] [--quick]
    python benchmarks/e2e/run.py --compare A/results.json B/results.json

One closed-loop client per workload: the next op starts when the
previous one returned.  Per workload the driver runs fresh interpreters
in sequence — set-up children (generate the instance from the seed),
a measure child (warm-up op, then timed ops, tracing off) and, with
``--trace 1``, a trace child (one op under the bench's own spans).
Every metric is printed by name with its unit, every returned partition
is verified, and ``results.json`` is written to ``--out``.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Exit status is non-zero if any op
failed.  ``README.md`` beside this file says what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: set-up children per run; ``setup_s`` takes the median of their walls
SETUP_REPS = 3
#: a child that has not ended by then is killed and the run fails
CHILD_TIMEOUT_S = 150

#: knobs of the program that must not leak from the caller's shell into a row
SCRUBBED = (
    "REPRO_BACKEND", "REPRO_LP_CHUNK", "REPRO_LP_ENGINE", "REPRO_LP_FRONTIER",
    "REPRO_LP_AUTOTUNE_COST", "REPRO_SANITIZE", "REPRO_SPMD_TIMEOUT",
    "REPRO_BENCH_SEEDS",
)
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = str(tmp)  # the streaming generator spills to tempfile's dir
    return env


def run_child(role: str, args: list, env: dict, tmp: Path) -> tuple[dict, float]:
    """Run one child role to its end; return its result and its wall time."""
    result = tmp / f"{role}.json"
    cmd = [sys.executable, str(HERE / "child.py"), role, "--result", str(result),
           *map(str, args)]
    start = time.perf_counter()
    # Own session: on a timeout the whole group goes, spawned ranks included.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{role} child failed with status {proc.returncode}")
    return json.loads(result.read_text()), wall


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def by_seed(ops: list[dict], key: str) -> dict[int, list]:
    """``key`` of the ops, grouped by their partition seed."""
    groups: dict[int, list] = {}
    for op in ops:
        groups.setdefault(op["seed"], []).append(op[key])
    return groups


def layer_metrics(measured: dict, traced: dict, lanes: list[dict]) -> dict:
    """Per-layer metrics of one workload from the traced op's spans.

    Self time is a span's duration minus its child spans, summed over
    calls.  With rank lanes (process backend) a layer's time is the main
    lane's plus the largest rank lane's; counts are exact.  The probe
    ops are set against the untraced ops of their own partition seed,
    because another seed is another amount of work.
    """
    op = traced["traced_op"]
    # span clocks are raw: bring them to the undisturbed host like wall_s
    own = [t / op["slowdown"] for t in spans.self_times(lanes)]
    ranks = sorted({s["rank"] for s in lanes if s["rank"] is not None})

    def lane_total(name: str, rank) -> float:
        return sum(t for t, s in zip(own, lanes) if s["name"] == name and s["rank"] == rank)

    def seconds(name: str) -> float:
        return lane_total(name, None) + max((lane_total(name, r) for r in ranks), default=0.0)

    def calls(name: str) -> int:
        per_lane = [sum(1 for s in lanes if s["name"] == name and s["rank"] == r)
                    for r in (None, *ranks)]
        return per_lane[0] + max(per_lane[1:], default=0)

    def last(name: str, key: str):
        found = [s[key] for s in lanes if s["name"] == name and s["rank"] in (None, 0)]
        return found[-1] if found else 0

    warm_up, *timed = measured["ops"]  # the warm-up op has the traced op's seed, but is cold
    wall_s = statistics.median(by_seed(timed, "wall").get(op["seed"]) or [warm_up["wall"]])
    lp_s = seconds("engine.lp_coarsen") + seconds("engine.lp_refine")
    arcs = sum(s.get("arcs", 0) for s in lanes)
    ops = measured["ops"] + [op]
    out = {
        "graph.io.load_s": seconds("graph.io.load"),
        "engine.lp_coarsen_s": seconds("engine.lp_coarsen"),
        "engine.lp_coarsen_calls": calls("engine.lp_coarsen"),
        "engine.lp_refine_s": seconds("engine.lp_refine"),
        "engine.lp_refine_calls": calls("engine.lp_refine"),
        "engine.lp_arcs_computed": arcs,
        "engine.lp_arcs_per_s": arcs / lp_s if lp_s else 0.0,
        "engine.lp_oocore_s": seconds("engine.lp_oocore"),
        "graph.contract_s": seconds("graph.contract"),
        "core.levels": calls("graph.contract") + calls("dist.contract"),
        "core.coarsest_nodes": last("kaffpa.initial", "nodes") or last("evolutionary.initial", "nodes"),
        "dist.contract_s": seconds("dist.contract"),
        "kaffpa.initial_s": seconds("kaffpa.initial"),
        "kaffpa.initial_calls": calls("kaffpa.initial"),
        "evolutionary.initial_s": seconds("evolutionary.initial"),
        "dist.distribute_s": seconds("dist.distribute"),
        "metrics.validate_s": seconds("metrics.validate"),
        "metrics.imbalance": max(done["imbalance"] for done in ops),
        "metrics.cut_distinct": max(len(set(cuts)) for cuts in by_seed(ops, "cut").values()),
        "api.other_s": seconds(spans.OP_ROOT) + seconds(spans.RANK_ROOT),
        "api.first_op_s": warm_up["wall"],
        "trace.overhead_frac": op["wall"] / wall_s - 1.0,
        "obsv.tracer_overhead_frac": (
            traced["tracer_op"]["wall"] / wall_s - 1.0 if traced.get("tracer_op") else 0.0
        ),
        "dist.worker_peak_rss_mib": traced.get("worker_peak_rss_mib", 0.0),
        "dist.speedup_vs_seq": (
            traced["sequential_op"]["wall"] / wall_s if traced.get("sequential_op") else 0.0
        ),
    }
    for key in ("gathers", "arcs_read", "shard_misses", "shard_evictions"):
        out[f"graph.store.{key}"] = op["store"][key]
    out["graph.store.arcs_per_s"] = op["store"]["arcs_read"] / op["wall"]

    comm = traced.get("comm_stats", {})
    for key in ("calls", "msgs", "bytes"):
        out[f"dist.comm_{key}"] = comm.get(key, 0)
    out["dist.sim_time_s"] = comm.get("sim_time_s", 0.0)
    dist = dict.fromkeys(
        ("dist.spawn_s", "dist.teardown_s", "dist.comm_s", "dist.comm_mean_s",
         "dist.comm_share", "dist.rank_skew"), 0.0)
    if ranks:
        call = next(s for s in lanes if s["name"] == spans.SPMD_CALL)
        roots = [s for s in lanes if s["name"] == spans.RANK_ROOT]
        program = [(s["end"] - s["start"]) / op["slowdown"] for s in roots]
        in_comm = [lane_total("dist.comm", s["rank"]) for s in roots]
        outside = [p - c for p, c in zip(program, in_comm)]
        dist = {
            # perf_counter is CLOCK_MONOTONIC on Linux: one timeline for
            # the parent and the ranks it spawned
            "dist.spawn_s": (min(s["start"] for s in roots) - call["start"]) / op["slowdown"],
            "dist.teardown_s": (call["end"] - max(s["end"] for s in roots)) / op["slowdown"],
            "dist.comm_s": max(in_comm),
            "dist.comm_mean_s": statistics.fmean(in_comm),
            "dist.comm_share": sum(in_comm) / sum(program),
            "dist.rank_skew": max(outside) / statistics.fmean(outside),
        }
    return {**out, **dist}


def run_workload(workload, opts, env: dict, tmp: Path, info: dict) -> dict:
    setup_walls = []
    for rep in range(SETUP_REPS):
        dest = tmp / f"instance{rep}"
        dest.mkdir()
        made, wall = run_child(
            "setup",
            ["--workload", workload.name, "--seed", opts.seed, "--dest", dest]
            + (["--quick"] if opts.quick else []),
            env, tmp,
        )
        setup_walls.append(wall / made["slowdown"])
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(dest)
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(made["spec"]))

    # More ranks than cores would time the scheduler, not the program:
    # run the ops for their cuts and counts, leave wall_s unresolved.
    starved = info["cpu_cores"] < workload.needs_cores
    measured, _ = run_child(
        "measure",
        ["--spec", spec_path, "--reps", 1 if starved else opts.reps,
         "--seconds", 0 if starved else opts.seconds],
        env, tmp,
    )
    record = {
        "why": workload.why,
        "attempted": measured["attempted"],
        "failures": measured["failures"],
        "unresolved": ["wall_s"] if starved else [],
    }
    # which engines the program's defaults reached, under the scrubbed environment
    info["engine_defaults"] = measured["engine_defaults"]
    if measured["failures"] or len(measured["ops"]) < 2:
        return record
    warm_up, *timed = measured["ops"]
    seed_cuts = {op["seed"]: op["cut"] for op in measured["ops"]}
    record["wall_samples"] = [op["wall"] for op in timed]
    record["wall_raw_samples"] = [op["wall_raw"] for op in timed]
    record["cuts"] = seed_cuts
    record["end_to_end"] = {
        # The work of an op depends on its partition seed (up to 30 % on
        # rmat15), and a timed loop ends anywhere in the cycle: give every
        # seed one vote, whatever the number of samples it got.
        "wall_s": statistics.fmean(map(statistics.median, by_seed(timed, "wall").values())),
        "cut": statistics.fmean(seed_cuts.values()),
        "peak_rss_mib": measured["peak_rss_mib"],
        "setup_s": statistics.median(setup_walls) + measured["import_s"] + warm_up["wall"],
    }
    if not opts.trace:
        return record

    spans_path = opts.out / f"{workload.name}.spans.jsonl"
    traced, _ = run_child(
        "trace",
        ["--spec", spec_path, "--op", f"{workload.name}#{opts.seed}",
         "--spans-out", spans_path] + (["--tracer-probe"] if workload.tracer_probe else []),
        env, tmp,
    )
    record["attempted"] += traced["attempted"]
    record["failures"] += traced["failures"]
    if traced["failures"]:
        return record
    lanes = [json.loads(line) for line in spans_path.read_text().splitlines()]
    record["per_layer"] = layer_metrics(measured, traced, lanes)
    record["traced_wall_s"] = traced["traced_op"]["wall"]
    if record["per_layer"]["metrics.cut_distinct"] != 1:
        # Same instance, same partition seed, another cut: the traced op
        # took another path than the untraced ones, or the program is
        # not deterministic.
        record["failures"].append("ops with one partition seed returned different cuts")
    return record


def host_info() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "dont_write_bytecode": sys.dont_write_bytecode,  # every child recompiles repro
        "commit": commit,
    }


def show(name: str, record: dict, spec: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed = len(record["failures"])
    print(f"{name}: {record['attempted']} ops, {failed} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for metric in (m["name"] for m in spec["end_to_end"]) if "end_to_end" in record else ():
        value, note = record["end_to_end"][metric], ""
        if metric == "wall_s":
            walls = record["wall_samples"]
            q1, q3 = quartiles(walls)
            raw = statistics.median(record["wall_raw_samples"])
            note = (f"  (mean over partition seeds of their median; n={len(walls)} ops: "
                    f"min {min(walls):.3f} q1 {q1:.3f} q3 {q3:.3f} max {max(walls):.3f}; "
                    f"raw median {raw:.3f}, host slowdown {raw / statistics.median(walls):.2f})")
            if metric in record["unresolved"]:
                note += "  UNRESOLVED: fewer cores than ranks"
        if metric == "cut":
            note = f"  (mean over partition seeds {record['cuts']})"
        print(f"  {name} {metric} {value:.6g} {units[metric]}{note}")
    print(f"  {name} fail_share {failed / record['attempted']:.6g} ratio")
    for metric in spec["per_layer"] if "per_layer" in record else ():
        print(f"  {name} {metric['name']} {record['per_layer'][metric['name']]:.6g} {metric['unit']}")


def verdict(metric: str, bound: float, a: dict, b: dict) -> str:
    """Is ``b`` worse than ``a`` on a lower-is-better metric, by its bound?"""
    if metric in a["unresolved"] or metric in b["unresolved"]:
        return "unresolved"
    old, new = a["end_to_end"][metric], b["end_to_end"][metric]
    return "worse" if new > old * (1.0 + bound) else "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    bad = 0
    print(f"{'workload':22} {'metric':28} {'A':>12} {'B':>12} {'B/A':>8}  verdict")
    for name in a:
        if name not in b or "end_to_end" not in a[name] or "end_to_end" not in b[name]:
            print(f"{name:22} missing or failed on one side")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            old, new = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            result = verdict(key, metric["bound"], a[name], b[name])
            bad += result == "worse"
            print(f"{name:22} {key:28} {old:12.6g} {new:12.6g} {new / old:8.3f}  "
                  f"{result} (bound {metric['bound']}, base A)")
        for key in exact:
            old = a[name].get("per_layer", {}).get(key)
            new = b[name].get("per_layer", {}).get(key)
            if old != new:
                bad += 1
                print(f"{name:22} {key:28} {old!s:>12} {new!s:>12} {'':8}  differs (exact count)")
    print("exact counts equal" if not bad else f"{bad} rows worse or different")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME),
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measure for this long per workload")
    parser.add_argument("--reps", type=int, help="and for at least this many timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--quick", action="store_true",
                        help="small instances, two ops: the self-check pass")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    opts = parser.parse_args()

    # Fail before measuring anything when the program is not there.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.compare:
        return compare(*opts.compare, spec)
    if opts.seconds is None:
        opts.seconds = 0.0 if opts.quick else float(spec["run_seconds"])
    if opts.reps is None:
        # with the warm-up op every partition seed gets its turn, however
        # slow the host, so ``cut`` is always the mean over the same seeds
        opts.reps = 2 if opts.quick else workloads.PARTITION_SEEDS - 1
    names = opts.workload or [w.name for w in workloads.WORKLOADS]

    opts.out = opts.out.resolve()  # the children run from the repository root
    opts.out.mkdir(parents=True, exist_ok=True)
    info = host_info()
    records = {}
    for name in names:
        tmp = opts.out / f"tmp-{os.getpid()}"
        tmp.mkdir()
        try:
            records[name] = run_workload(
                workloads.BY_NAME[name], opts, child_env(tmp), tmp, info
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        show(name, records[name], spec)

    print("info " + json.dumps(info))
    (opts.out / "results.json").write_text(json.dumps(
        {"info": info, "seed": opts.seed, "quick": opts.quick, "seconds": opts.seconds,
         "reps": opts.reps, "workloads": records}, indent=1))

    kind = "per_layer" if opts.trace else "end_to_end"
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(len(r["failures"]) for r in records.values())
    metrics = {}
    if len(records) == 1:  # several workloads: their values are in results.json
        values = records[names[0]].get(kind, {})
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec[kind] if m["name"] in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
