"""Command-line interface.

Mirrors the ergonomics of the real tools (``parhip``, ``kaffpa``)::

    python -m repro partition graph.metis -k 8 --preset fast -o graph.part
    python -m repro partition graph.metis -k 8 --num-pes 4 --trace out.json
    python -m repro analyze out.events.jsonl
    python -m repro generate rgg --exponent 12 -o rgg12.metis
    python -m repro evaluate graph.metis graph.part -k 8
    python -m repro cluster graph.metis -o clusters.txt
    python -m repro instances

Graphs are read by extension: ``.metis``/``.graph`` (METIS format),
``.dimacs``/``.col`` (DIMACS), ``.npz`` (native), a directory (sharded
CSR with its ``manifest.json``, opened memory-mapped), anything else is
tried as an edge list.  ``repro convert graph.metis shards/`` produces
the sharded on-disk form; ``repro partition shards/ -k 8 --store mmap``
partitions it out of core.  An input that cannot be read (a missing or
malformed file, a directory without a manifest, a corrupt shard, an
unknown generator family) exits 1 with ``repro: <message>`` on stderr,
the message naming the culprit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from . import generators
from .api import partition_graph
from .core.clustering import cluster_graph
from .core.config import check_integer, eco_config, fast_config, minimal_config
from .engine.backend import BACKENDS
from .graph import (
    Graph,
    GraphError,
    convert_to_sharded,
    is_sharded_dir,
    load_npz,
    open_sharded,
    read_dimacs,
    read_edge_list,
    read_metis,
    read_partition,
    save_npz,
    write_metis,
    write_partition,
)
from .metrics import evaluate_partition
from .perf import MACHINE_A, MACHINE_B

__all__ = ["main"]

_MACHINES = {"A": MACHINE_A, "B": MACHINE_B}
#: what ``repro generate`` builds besides a registry instance
_FAMILIES = ("rgg", "del", "web", "social", "grid")
#: family -> (size flag, its least value): a Delaunay triangulation needs
#: three points, the power-law generator more nodes than it attaches (4)
_LEAST_SIZE = {"del": ("exponent", 2), "social": ("nodes", 5)}


def _load_graph(path: str, store: str | None = None,
                resident_shards: int | None = None) -> Graph:
    """Read a graph; ``store`` picks the backing storage.

    ``store=None`` keeps the natural form of the input (files load into
    memory, shard directories open memory-mapped).  ``'memory'`` forces a
    resident graph (materializing shard directories); ``'mmap'`` forces
    the sharded store, converting file inputs through a ``<path>.shards``
    sibling directory on first use.
    """
    if Path(path).is_dir():  # a shard directory; a missing manifest is a StoreError
        kwargs = {}
        if resident_shards is not None:
            kwargs["max_resident_shards"] = resident_shards
        graph = open_sharded(path, **kwargs)
        return graph.materialized() if store == "memory" else graph
    if store == "mmap":
        shard_dir = Path(path).with_name(Path(path).name + ".shards")
        if not is_sharded_dir(shard_dir):
            convert_to_sharded(path, shard_dir)
            print(f"sharded copy written to {shard_dir}")
        kwargs = {}
        if resident_shards is not None:
            kwargs["max_resident_shards"] = resident_shards
        return open_sharded(shard_dir, **kwargs)
    suffix = Path(path).suffix.lower()
    if suffix in (".metis", ".graph"):
        return read_metis(path)
    if suffix in (".dimacs", ".col"):
        return read_dimacs(path)
    if suffix == ".npz":
        return load_npz(path)
    return read_edge_list(path)


def _save_graph(graph: Graph, path: str) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        save_npz(graph, path)
    else:
        write_metis(graph, path)


def _write_trace_outputs(trace_out: str) -> None:
    from .obsv import TRACER, events_path, write_chrome_trace, write_jsonl

    write_chrome_trace(trace_out, TRACER)
    events = events_path(trace_out)
    write_jsonl(events, TRACER)
    print(f"chrome trace written to {trace_out} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    print(f"event stream written to {events} (read with: repro analyze {events})")


def _at_least(name: str, least: int = 1):
    """An argparse type: an integer >= ``least``, else an argparse error
    (exit 2) naming ``name`` and the text."""
    def parse(text: str) -> int:
        try:
            return check_integer(name, int(text), least=least)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {least}, got {text!r}"
            ) from None
    return parse


def _epsilon(text: str) -> float:
    """An argparse type: the epsilon ``PartitionConfig`` accepts, else an
    argparse error (exit 2) with its message."""
    try:
        return fast_config(epsilon=float(text)).epsilon
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _shard_span(text: str) -> int:
    """An argparse type: a shard span ``ShardedWriter`` accepts, a power
    of two >= 1, else an argparse error (exit 2)."""
    span = _at_least("nodes_per_shard")(text)
    if span & (span - 1):
        raise argparse.ArgumentTypeError(
            f"nodes_per_shard must be a power of two, got {span}")
    return span


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, store=args.store,
                        resident_shards=args.resident_shards)
    factory = {"fast": fast_config, "eco": eco_config, "minimal": minimal_config}
    config = factory[args.preset](
        k=args.k,
        epsilon=args.epsilon,
        flow_refinement=args.flows,
    )
    if args.lp_chunk is not None:
        config = config.with_(lp_chunk_size=args.lp_chunk)
    initial = read_partition(args.initial_partition) if args.initial_partition else None
    if args.trace:
        from .obsv import TRACER

        TRACER.enable()
    try:
        result = partition_graph(
            graph,
            k=args.k,
            num_pes=args.num_pes,
            machine=_MACHINES[args.machine],
            seed=args.seed,
            config=config,
            initial_partition=initial,
            backend=args.backend,
        )
    finally:
        if args.trace:
            TRACER.disable()
    print(result.quality.summary())
    if result.sim_time is not None:
        print(f"simulated time: {result.sim_time * 1e3:.2f} ms "
              f"({result.num_pes} PEs, machine {args.machine})")
    if args.output:
        write_partition(result.partition, args.output)
        print(f"partition written to {args.output}")
    if args.trace:
        _write_trace_outputs(args.trace)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if out.suffix.lower() in (".npz", ".metis", ".graph"):
        # Shard directory (or any readable graph) back to a single file.
        graph = _load_graph(args.input, store="memory")
        _save_graph(graph, str(out))
        print(f"{graph} -> {out}")
        return 0
    kwargs = {}
    if args.nodes_per_shard is not None:
        kwargs["nodes_per_shard"] = args.nodes_per_shard
    manifest = convert_to_sharded(args.input, out, **kwargs)
    graph = open_sharded(out)
    print(f"{graph} -> {manifest} ({graph.store.num_shards} shards)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family in _LEAST_SIZE:
        name, least = _LEAST_SIZE[args.family]
        if getattr(args, name) < least:
            args.usage_error(f"argument --{name}: {name} must be an integer >= {least} "
                             f"for family {args.family!r}, got '{getattr(args, name)}'")
    if args.family in ("rgg", "del"):
        graph = generators.family_instance(args.family, args.exponent, seed=args.seed)
    elif args.family == "web":
        graph = generators.web_copy_graph(args.nodes, seed=args.seed)
    elif args.family == "social":
        graph = generators.powerlaw_cluster(args.nodes, seed=args.seed)
    elif args.family == "grid":
        side = int(round(args.nodes ** 0.5))
        graph = generators.grid_2d(side, side)
    elif args.family in generators.INSTANCES:
        graph = generators.load_instance(args.family, seed=args.seed)
    else:
        raise GraphError(
            f"unknown family {args.family!r}; choose from "
            f"{', '.join(_FAMILIES)} or a registry instance: "
            f"{', '.join(generators.INSTANCES)}"
        )
    _save_graph(graph, args.output)
    print(f"{graph} -> {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    partition = read_partition(args.partition)
    k = int(partition.max()) + 1 if args.k is None else args.k
    quality = evaluate_partition(graph, partition, k)
    print(quality.summary())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = cluster_graph(graph, seed=args.seed)
    print(f"clusters={result.num_clusters} modularity={result.modularity:.4f} "
          f"levels={result.levels}")
    if args.output:
        write_partition(result.clustering, args.output)
        print(f"clustering written to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .obsv import read_jsonl, render_analysis, write_run_summary

    out = args.output
    if out is None:
        events = Path(args.events)
        out = str(events.with_name((events.name.removesuffix(".events.jsonl")
                                    or events.stem) + ".run.json"))
    try:
        summary = write_run_summary(out, read_jsonl(args.events))
    except (OSError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    print(render_analysis(summary))
    print(f"\nrun summary written to {out}")
    return 0


def _cmd_instances(_args: argparse.Namespace) -> int:
    print(f"{'name':14s} {'type':4s} {'group':6s} {'paper n':>10s} {'paper m':>10s}")
    for name, inst in generators.INSTANCES.items():
        print(f"{name:14s} {inst.kind:4s} {inst.group:6s} "
              f"{inst.paper_nodes:>10.2g} {inst.paper_edges:>10.2g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParHIP reproduction: parallel graph partitioning for complex networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a graph")
    p.add_argument("graph")
    p.add_argument("-k", type=_at_least("k"), required=True, help="number of blocks")
    p.add_argument("--epsilon", type=_epsilon, default=0.03)
    p.add_argument("--preset", choices=("minimal", "fast", "eco"), default="fast")
    p.add_argument("--num-pes", type=_at_least("num_pes"), default=1,
                   dest="num_pes")
    p.add_argument("--machine", choices=("A", "B"), default="B")
    p.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="launcher of a parallel run (default: spmd)",
    )
    p.add_argument("--seed", type=_at_least("seed", 0), default=0)
    p.add_argument("--flows", action="store_true",
                   help="enable flow-based refinement on the coarsest graph "
                        "(any --num-pes)")
    p.add_argument("--lp-chunk", dest="lp_chunk", type=_at_least("lp_chunk_size"),
                   default=None,
                   help="label-propagation chunk size, >= 1 (default: the "
                        "preset's lp_chunk_size, 4096)")
    p.add_argument("--store", choices=("memory", "mmap"), default=None,
                   help="graph storage: 'memory' loads the whole CSR into "
                        "RAM, 'mmap' streams arcs from a sharded on-disk "
                        "copy (out-of-core; converts file inputs once). "
                        "Default: whatever the input already is")
    p.add_argument("--resident-shards", dest="resident_shards",
                   type=_at_least("max_resident_shards"), default=None,
                   help="LRU residency bound for --store mmap / shard-dir "
                        "inputs (default 4 shards)")
    p.add_argument("--initial-partition", dest="initial_partition",
                   help="warm-start partition file (one block id per line)")
    p.add_argument("--trace", metavar="OUT.json", default=None,
                   help="record a trace; writes Chrome-trace JSON to OUT.json "
                        "and the event stream to OUT.events.jsonl")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_partition)

    v = sub.add_parser(
        "convert",
        help="convert a graph to the sharded on-disk CSR form (or back: "
             "an .npz/.metis output materializes a shard directory)",
    )
    v.add_argument("input", help="graph file or shard directory")
    v.add_argument("output",
                   help="output shard directory, or a .npz/.metis/.graph "
                        "file to materialize into")
    v.add_argument("--nodes-per-shard", dest="nodes_per_shard", type=_shard_span,
                   default=None,
                   help="shard span in nodes; power of two (default 65536)")
    v.set_defaults(func=_cmd_convert)

    g = sub.add_parser("generate", help="generate a benchmark graph")
    g.add_argument("family",
                   help=f"{' | '.join(_FAMILIES)} | <registry instance name>")
    g.add_argument("--exponent", type=_at_least("exponent", 0), default=10,
                   help="for rgg/del: 2^X nodes")
    g.add_argument("--nodes", type=_at_least("nodes"), default=4096)
    g.add_argument("--seed", type=_at_least("seed", 0), default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate, usage_error=g.error)

    e = sub.add_parser("evaluate", help="score an existing partition")
    e.add_argument("graph")
    e.add_argument("partition")
    e.add_argument("-k", type=_at_least("k"), default=None)
    e.set_defaults(func=_cmd_evaluate)

    c = sub.add_parser("cluster", help="modularity clustering")
    c.add_argument("graph")
    c.add_argument("--seed", type=_at_least("seed", 0), default=0)
    c.add_argument("-o", "--output")
    c.set_defaults(func=_cmd_cluster)

    a = sub.add_parser(
        "analyze",
        help="read a trace: per-level / per-phase / load tables, critical "
             "path, straggler blame, comm matrix, memory; writes a "
             "machine-readable run.json",
    )
    a.add_argument("events", help="JSONL event stream (the .events.jsonl file)")
    a.add_argument("-o", "--output", default=None,
                   help="run-summary JSON path (default: <events>.run.json "
                        "next to the event stream)")
    a.set_defaults(func=_cmd_analyze)

    i = sub.add_parser("instances", help="list the Table I instance registry")
    i.set_defaults(func=_cmd_instances)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:  # a bad or missing input, named
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
