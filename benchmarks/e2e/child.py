"""Child processes of the end-to-end benchmark: set-up, measure, trace.

``run.py`` starts each role in a fresh interpreter, because they must
not share a process: generating an instance peaks far above what the
partitioner itself needs and would mask ``peak_rss_mib``, and the
wrappers of the traced op must never be present while ``wall_s`` is
timed.  Each role writes one JSON object to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import spans
import speed
import workloads


class OpLog:
    """Runs ops, verifies each from outside the program, counts failures."""

    def __init__(self, spec: dict, probe: speed.SpeedProbe) -> None:
        self.spec = spec
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op=workloads.run_op, index: int = 0, spec: dict | None = None) -> dict | None:
        """Time ``op`` and verify what it returned; ``None`` if the op failed.

        Only the op is timed — the benchmark's own verification is not
        part of ``wall_s`` — and its wall is divided by the slowdown the
        host showed meanwhile (see :mod:`speed`).
        """
        spec = spec or self.spec
        seed = workloads.op_seed(spec, index)
        self.attempted += 1
        try:
            # Only the process backend parks graphs in shared memory; on the
            # other ops a new segment belongs to someone else's run.
            on_processes = spec["call"].get("backend") == "process"
            segments = workloads.shm_segments()
            start = time.perf_counter()
            graph, partition, reported_cut = op(spec, seed)
            end = time.perf_counter()
            store = graph.store.stats().as_dict()
            cut, imbalance = workloads.verify(
                graph, partition, spec["call"]["k"], reported_cut
            )
            left = workloads.shm_segments() - segments
            if on_processes and left:
                raise workloads.OpFailure(f"shared memory left behind: {sorted(left)}")
        except Exception as exc:  # noqa: BLE001 - a failed op is a result, not a crash
            self.failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        slowdown = self.probe.slowdown(start, end)
        return {"wall": (end - start) / slowdown, "wall_raw": end - start,
                "slowdown": slowdown, "seed": seed, "cut": cut,
                "imbalance": imbalance, "store": store}


def setup(args, probe: speed.SpeedProbe) -> dict:
    workload = workloads.BY_NAME[args.workload]
    path = workloads.generate(workload, args.seed, args.dest, quick=args.quick)
    return {"spec": workloads.op_spec(workload, path, args.seed)}


def measure(args, probe: speed.SpeedProbe) -> dict:
    """Untraced closed loop: one warm-up op, then timed ops back to back."""
    start = time.perf_counter()
    import repro.api  # noqa: F401 - timed: work moved into import shows in setup_s
    from repro.engine.kernels import SCAN_ENGINE, resolve_chunk_size, resolve_engine

    end = time.perf_counter()
    import_s = (end - start) / probe.slowdown(start, end)
    with open(args.spec) as handle:
        log = OpLog(json.load(handle), probe)
    ops = [log.run()]
    began = time.perf_counter()
    while ops[-1] is not None and (
        len(ops) <= args.reps or time.perf_counter() - began < args.seconds
    ):
        ops.append(log.run(index=len(ops)))
    return {
        "import_s": import_s,
        "ops": [op for op in ops if op is not None],  # ops[0] is the warm-up
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": log.attempted,
        "failures": log.failures,
        "engine_defaults": {
            "sequential_lp_chunk": resolve_chunk_size(None, default=SCAN_ENGINE),
            "distributed_lp_chunk": resolve_chunk_size(None),
            "lp_engine": resolve_engine(None),
        },
    }


def process_op(recorder: spans.Recorder, out: dict):
    """The process-backend op with the wrappers living in the workers.

    Calls the public ``run_spmd_processes`` exactly as
    ``parallel_partition`` does, with ``spans.traced_program`` in place of
    ``parhip_program``, then validates like ``partition_graph``.  The
    ranks' span lanes and communication counters land in ``out``.
    """
    def op(spec: dict, seed: int):
        import repro.core.config
        import repro.graph
        from repro.dist.runtime import run_spmd_processes
        from repro.metrics import evaluate_partition

        call = spec["call"]
        graph = getattr(repro.graph, workloads.LOADERS[spec["format"]])(spec["path"])
        config = getattr(repro.core.config, f"{call['preset']}_config")(
            k=call["k"], epsilon=call["epsilon"]
        )
        with recorder.span(spans.SPMD_CALL):
            result = run_spmd_processes(
                call["num_pes"], spans.traced_program, config, seed, recorder.op,
                graph=graph, seed=seed, sanitize=config.sanitize,
                timeout=config.spmd_timeout,
            )
        (partition, _), _ = result.per_rank[0]
        quality = evaluate_partition(graph, partition, config.k)
        repro.graph.check_partition(graph, partition, config.k, epsilon=None)
        out["comm_stats"] = {
            "calls": max(s.collectives for s in result.stats),
            "msgs": max(s.messages_sent for s in result.stats),
            "bytes": max(s.bytes_sent for s in result.stats),
            "sim_time_s": result.sim_time,
        }
        out["rank_lanes"] = [lane for _, lane in result.per_rank]
        return graph, partition, quality.cut
    return op


def trace(args, probe: speed.SpeedProbe) -> dict:
    """One op with the bench's wrappers installed, plus the probe ops.

    The probes run first, before anything is wrapped: one op under the
    program's own tracer (its end-to-end overhead), and on a process-
    backend workload one sequential op of the same call (the base of
    ``dist.speedup_vs_seq``).
    """
    from repro.obsv import TRACER

    with open(args.spec) as handle:
        spec = json.load(handle)
    log = OpLog(spec, probe)
    out: dict = {}
    if args.tracer_probe:
        TRACER.enable()
        out["tracer_op"] = log.run()
        TRACER.disable()
    on_processes = spec["call"].get("backend") == "process"
    if on_processes:
        sequential = {**spec, "call": {**spec["call"], "num_pes": 1}}
        out["sequential_op"] = log.run(spec=sequential)

    recorder = spans.Recorder(args.op)
    # partition_graph routes a sharded (non-resident) graph at one PE to
    # the flat partition_oocore, where run_sclp *is* the LP layer.
    spans.install(recorder, flat_lp=spec["format"] == "sharded")
    op = process_op(recorder, out) if on_processes else workloads.run_op

    def traced(spec: dict, seed: int):
        with recorder.span(spans.OP_ROOT):
            return op(spec, seed)

    out["traced_op"] = log.run(traced)
    names = [span["name"] for span in recorder.spans]
    merged = spans.merge_lanes(
        recorder.spans, out.pop("rank_lanes", []),
        under=names.index(spans.SPMD_CALL) if spans.SPMD_CALL in names else None,
    )
    with open(args.spans_out, "w") as handle:
        for span in merged:
            handle.write(json.dumps(span) + "\n")
    if on_processes:
        out["worker_peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    out["attempted"] = log.attempted
    out["failures"] = log.failures
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dest")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spec")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--op", default="traced")
    parser.add_argument("--spans-out")
    parser.add_argument("--tracer-probe", action="store_true")
    args = parser.parse_args()
    began = time.perf_counter()
    probe = speed.SpeedProbe()
    probe.start()
    result = {"setup": setup, "measure": measure, "trace": trace}[args.role](args, probe)
    probe.stop()
    result["slowdown"] = probe.slowdown(began, time.perf_counter())  # over the child's life
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
