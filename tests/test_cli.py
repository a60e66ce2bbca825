"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.graph import (
    load_npz,
    read_metis,
    read_partition,
    save_sharded,
    write_metis,
)
from repro.generators import rgg
from repro.metrics import edge_cut


@pytest.fixture
def metis_graph(tmp_path):
    path = tmp_path / "g.metis"
    write_metis(rgg(9, seed=0), path)
    return path


class TestPartitionCommand:
    def test_partition_writes_valid_file(self, metis_graph, tmp_path, capsys):
        out = tmp_path / "g.part"
        code = main(["partition", str(metis_graph), "-k", "4", "-o", str(out)])
        assert code == 0
        partition = read_partition(out)
        graph = read_metis(metis_graph)
        assert partition.shape == (graph.num_nodes,)
        assert int(partition.max()) < 4
        captured = capsys.readouterr().out
        assert "cut=" in captured

    def test_parallel_partition(self, metis_graph, capsys):
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--num-pes", "2", "--machine", "B"])
        assert code == 0
        assert "simulated time" in capsys.readouterr().out

    def test_lp_chunk_reaches_the_out_of_core_engine(self, tmp_path):
        # Regression: the flat out-of-core path carried its own chunk and
        # ignored --lp-chunk / config.lp_chunk_size.
        shards = tmp_path / "shards"
        save_sharded(rgg(9, seed=0), shards, nodes_per_shard=128)
        for chunk in (4, 8):  # both under the 32-refreshes cap of 512 / 32
            trace = tmp_path / f"trace{chunk}.json"
            assert main(["partition", str(shards), "-k", "4", "--lp-chunk",
                         str(chunk), "--trace", str(trace)]) == 0
            with open(tmp_path / f"trace{chunk}.events.jsonl") as handle:
                records = [json.loads(line) for line in handle]
            sizes = {r["attrs"]["chunk_size"] for r in records
                     if r.get("name") == "lp.iteration"}
            assert sizes == {chunk}

    def test_feature_flags(self, metis_graph, tmp_path, capsys):
        # warm start from a previous partition, with flows on
        warm = tmp_path / "warm.part"
        assert main(["partition", str(metis_graph), "-k", "2",
                     "--preset", "minimal", "-o", str(warm)]) == 0
        code = main(["partition", str(metis_graph), "-k", "2",
                     "--preset", "minimal", "--flows",
                     "--initial-partition", str(warm)])
        assert code == 0
        assert "cut=" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-3", "2.5", "True"])
    def test_num_pes_must_be_a_positive_int(self, metis_graph, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(["partition", str(metis_graph), "-k", "2", f"--num-pes={bad}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "num_pes" in err and repr(bad) in err

    @pytest.mark.parametrize("command", ["partition", "generate", "cluster"])
    @pytest.mark.parametrize("bad", ["-1", "2.5"])
    def test_seed_must_be_a_count(self, metis_graph, tmp_path, capsys, command, bad):
        argv = {
            "partition": ["partition", str(metis_graph), "-k", "2"],
            "generate": ["generate", "rgg", "-o", str(tmp_path / "g.metis")],
            "cluster": ["cluster", str(metis_graph)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--seed={bad}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "seed must be an integer >= 0" in err and repr(bad) in err

    @pytest.mark.parametrize("bad", ["0", "-1", "1.5"])
    def test_resident_shards_must_be_a_positive_int(self, metis_graph, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(["partition", str(metis_graph), "-k", "2", "--store", "mmap",
                  f"--resident-shards={bad}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "max_resident_shards" in err and repr(bad) in err

    @pytest.mark.parametrize("argv, message", [
        (["partition", "{graph}", "-k", "0"],
         "argument -k: k must be an integer >= 1, got '0'"),
        (["partition", "{graph}", "-k", "2", "--epsilon", "-0.5"],
         "argument --epsilon: epsilon must be a finite number >= 0, got -0.5"),
        (["partition", "{graph}", "-k", "2", "--lp-chunk", "0"],
         "argument --lp-chunk: lp_chunk_size must be an integer >= 1, got '0'"),
        (["convert", "{graph}", "{tmp}/shards", "--nodes-per-shard", "3"],
         "argument --nodes-per-shard: nodes_per_shard must be a power of two, got 3"),
        (["convert", "{graph}", "{tmp}/shards", "--nodes-per-shard", "0"],
         "argument --nodes-per-shard: nodes_per_shard must be an integer >= 1, got '0'"),
        (["generate", "rgg", "--exponent", "-1", "-o", "{tmp}/g2.metis"],
         "argument --exponent: exponent must be an integer >= 0, got '-1'"),
        (["generate", "social", "--nodes", "-5", "-o", "{tmp}/g2.metis"],
         "argument --nodes: nodes must be an integer >= 1, got '-5'"),
        (["evaluate", "{graph}", "{graph}", "-k", "0"],
         "argument -k: k must be an integer >= 1, got '0'"),
    ])
    def test_a_bad_number_exits_2_naming_its_flag(self, metis_graph, tmp_path, capsys,
                                                  argv, message):
        """The library's own check runs at parse time: no traceback, no
        output written, and ``evaluate -k 0`` no longer means "k unset"."""
        with pytest.raises(SystemExit) as exc:
            main([arg.format(graph=metis_graph, tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [metis_graph]

    def test_backend_has_one_way_in(self, metis_graph, tmp_path, capsys, monkeypatch):
        # 'local' is --num-pes 1, not a backend, and the environment is
        # not a second selector.
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", str(metis_graph), "-k", "2", "--backend", "local"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_BACKEND", "process")
        trace = tmp_path / "t.json"
        assert main(["partition", str(metis_graph), "-k", "2", "--num-pes", "2",
                     "--trace", str(trace)]) == 0
        with open(tmp_path / "t.events.jsonl") as handle:
            records = [json.loads(line) for line in handle]
        header = next(r for r in records if r["type"] == "header")
        assert header["backend"] == "spmd"

    def test_cycle_flag_is_gone(self, metis_graph, capsys):
        # The V-cycle is the only cycle shape; argparse rejects the old flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", str(metis_graph), "-k", "2", "--cycle", "W"])
        assert excinfo.value.code == 2
        assert "--cycle" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_family(self, tmp_path):
        out = tmp_path / "del10.metis"
        assert main(["generate", "del", "--exponent", "10", "-o", str(out)]) == 0
        graph = read_metis(out)
        assert graph.num_nodes == 1024

    def test_generate_registry_instance(self, tmp_path):
        out = tmp_path / "amazon.npz"
        assert main(["generate", "amazon", "-o", str(out)]) == 0
        assert load_npz(out).num_nodes >= 1000

    def test_generate_web(self, tmp_path):
        out = tmp_path / "web.metis"
        assert main(["generate", "web", "--nodes", "512", "-o", str(out)]) == 0
        assert read_metis(out).num_nodes == 512

    def test_generate_grid(self, tmp_path):
        out = tmp_path / "grid.metis"
        assert main(["generate", "grid", "--nodes", "100", "-o", str(out)]) == 0
        assert read_metis(out).num_nodes == 100

    def test_unknown_family_lists_the_accepted_names(self, tmp_path, capsys):
        out = tmp_path / "x.metis"
        assert main(["generate", "rmat", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: unknown family 'rmat'") and err.count("\n") == 1
        for name in ("rgg", "del", "web", "social", "grid", "amazon", "uk-2007"):
            assert name in err
        assert not out.exists()


class TestEvaluateCommand:
    def test_evaluate_round_trip(self, metis_graph, tmp_path, capsys):
        graph = read_metis(metis_graph)
        partition = np.arange(graph.num_nodes) % 3
        part_file = tmp_path / "p.txt"
        np.savetxt(part_file, partition, fmt="%d")
        assert main(["evaluate", str(metis_graph), str(part_file)]) == 0
        out = capsys.readouterr().out
        assert f"cut={edge_cut(graph, partition)}" in out
        assert "k=3" in out

    def test_evaluate_refuses_labels_outside_k(self, metis_graph, tmp_path, capsys):
        """A partition into 3 blocks scored as k = 2 used to print a
        negative imbalance."""
        part_file = tmp_path / "p.txt"
        np.savetxt(part_file, np.arange(512) % 3, fmt="%d")
        assert main(["evaluate", str(metis_graph), str(part_file), "-k", "2"]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"repro: node 2 has label 2, outside \[0, k\) for k = 2\n", captured.err
        )
        assert "imbalance" not in captured.out


class TestClusterCommand:
    def test_cluster_writes_labels(self, metis_graph, tmp_path, capsys):
        out = tmp_path / "c.txt"
        assert main(["cluster", str(metis_graph), "-o", str(out)]) == 0
        labels = read_partition(out)
        graph = read_metis(metis_graph)
        assert labels.shape == (graph.num_nodes,)
        assert "modularity=" in capsys.readouterr().out


class TestInputErrors:
    """A bad input is a one-line ``repro: <message>`` and exit status 1,
    not a traceback."""

    def test_malformed_metis_file(self, tmp_path, capsys):
        path = tmp_path / "bad.metis"
        path.write_text("3 2\n2\n1 x\n2\n")
        assert main(["partition", str(path), "-k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ")
        assert "line 3" in captured.err and "'x'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_shard_directory_without_manifest(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        save_sharded(rgg(8, seed=0), shards, nodes_per_shard=64)
        (shards / "manifest.json").unlink()
        assert main(["partition", str(shards), "-k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"repro: no shard manifest at {shards / 'manifest.json'}\n"
        assert captured.out == ""


    def test_missing_graph_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.metis"
        assert main(["partition", str(missing), "-k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ") and str(missing) in captured.err
        assert captured.err.count("\n") == 1


class TestAnalyzeCommand:
    def test_a_chrome_trace_is_refused_naming_its_event_stream(
        self, metis_graph, tmp_path, capsys
    ):
        trace = tmp_path / "out.json"
        assert main(["partition", str(metis_graph), "-k", "2", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"analyze: {trace} is not an event stream")
        assert str(tmp_path / "out.events.jsonl") in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.json.run.json").exists()
        assert main(["analyze", str(tmp_path / "out.events.jsonl")]) == 0

    def test_missing_event_stream(self, tmp_path, capsys):
        missing = tmp_path / "nope.events.jsonl"
        assert main(["analyze", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("analyze: ") and str(missing) in captured.err
        assert "Traceback" not in captured.err


class TestInstancesCommand:
    def test_lists_registry(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "uk-2007" in out and "rgg26" in out
