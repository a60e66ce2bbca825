"""The compiled chunk scan: identity with its NumPy twin, and the loader.

Three contracts:

* ``native.scan_chunk`` and ``kernels.scan_chunk`` return the same
  ``(target, risky, arcs)`` for every chunk of every regime — checked by
  running real SCLP calls with *both* kernels evaluated on each chunk;
* whatever keeps the compiled kernel from loading selects the NumPy one,
  with exactly one warning naming the cause and unchanged results;
* the existing identity suites (oracle, frontier == full, goldens,
  Local == Spmd == Process) hold on the NumPy kernel too — they run on
  the compiled one by default, and their small cases run here once more
  under the ``numpy_kernel`` fixture.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.label_propagation import band_nodes
from repro.dist import run_spmd
from repro.dist.runtime import run_spmd_processes
from repro.engine import LocalBackend, kernels, native, run_sclp
from repro.engine.kernels import IterationWorkspace, candidate_tie_hash
from repro.generators import grid_2d, rmat
from repro.graph import from_edges
from repro.obsv.tracer import TRACER

from ..conftest import kernel_cache_leftovers, random_graphs
from ..core import test_lp_kernels as seq_suite
from ..core.test_lp_kernels import EDGELESS, HEAVY_NODE, WITH_ISOLATED
from ..dist import test_lp_kernels as dist_suite
from . import test_cross_backend as cross_suite
from . import test_golden_equivalence as golden_suite


def compiled() -> native.Resolution:
    """This host's compiled kernel, or skip (the CI leg that hides the
    compiler runs this module too)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resolution = native.resolve()
    if resolution.path is None:
        pytest.skip(f"no compiled kernel on this host: {resolution.reason}")
    return resolution


@contextlib.contextmanager
def both_kernels():
    """Every chunk of every ``run_sclp`` call inside is evaluated by the
    compiled *and* the NumPy kernel on the same snapshot and compared;
    yields the list of chunk sizes seen."""
    resolution = compiled()
    chunks: list[int] = []

    def checked(*args):
        target, risky, arcs = native.scan_chunk(*args)
        want_target, want_risky, want_arcs = kernels.scan_chunk(*args)
        assert target.dtype == want_target.dtype == np.int64
        assert risky.dtype == want_risky.dtype == np.bool_
        np.testing.assert_array_equal(target, want_target)
        np.testing.assert_array_equal(risky, want_risky)
        assert arcs == want_arcs and type(arcs) is int
        chunks.append(int(args[0].size))
        return target, risky, arcs

    with mock.patch.object(native, "select", lambda: (checked, resolution)):
        yield chunks


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
    def test_generated_graphs(self, graph, seed, k, regime, constrained,
                              chunk, sweep, tie_base):
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        constraint = rng.integers(0, 2, n) if constrained else None
        backend = LocalBackend(graph, np.random.default_rng(seed))
        backend.tie_base = tie_base  # as on a rank that owns nodes >= tie_base
        common = dict(chunk=chunk, pin_sweep=sweep, tie_seed=seed + 100,
                      constraint=constraint)
        with both_kernels() as chunks:
            if regime == "cluster":
                run_sclp(
                    backend, np.arange(n, dtype=np.int64),
                    max(1, int(graph.vwgt.sum()) // 4), 3,
                    ordering="degree" if seed % 2 else "random", **common,
                )
            else:
                # eps = 0: overloaded blocks, evictions, ineligible winners
                run_sclp(
                    backend, rng.integers(0, k, n),
                    max(1, int(graph.vwgt.sum()) // k), 3, ordering="random",
                    refine=True, shares=regime == "refine-shares", k=k,
                    **common,
                )
        assert bool(chunks) == bool(graph.num_arcs)

    def test_band_refinement(self):
        graph = grid_2d(16, 16)
        start = (np.arange(graph.num_nodes) % 16 >= 8).astype(np.int64)
        start[::7] ^= 1
        band = band_nodes(graph, start, 2)
        with both_kernels() as chunks:
            run_sclp(
                LocalBackend(graph, np.random.default_rng(1)), start,
                int(graph.vwgt.sum()) // 2 + 8, 3, ordering="random",
                refine=True, band=band, chunk=8,
            )
        assert chunks and max(chunks) <= 8

    @pytest.mark.parametrize("size", [2, 3])
    def test_distributed_ranks(self, size):
        """Ghost slots, a non-zero tie base, a constraint with a halo, and
        (p = 3) budget shares that are not integers: the float ``cap``."""
        with both_kernels() as chunks:
            run_spmd(size, dist_suite.cluster_program, False, True, seed=1)
            run_spmd(size, dist_suite.refine_program, False, seed=1)
        assert chunks

    def test_out_of_core_store_counters(self, tmp_path):
        """The compiled path reads the chunk's arcs through the same two
        gathers per chunk as the NumPy path."""
        from repro.graph.io import open_sharded, save_sharded

        compiled()
        graph = rmat(9, seed=5)
        save_sharded(graph, tmp_path / "shards", nodes_per_shard=64)
        stats = {}
        for name in ("native", "numpy"):
            sharded = open_sharded(tmp_path / "shards", max_resident_shards=2)
            forced = contextlib.nullcontext() if name == "native" else (
                mock.patch.object(
                    native, "_resolution", native.Resolution(None, "test")
                )
            )
            with forced:
                labels = run_sclp(
                    LocalBackend(sharded, np.random.default_rng(0)),
                    np.arange(graph.num_nodes, dtype=np.int64), 40, 3,
                    ordering="node", chunk=32,
                )
            stats[name] = (labels.tolist(), sharded.store.stats().as_dict())
        assert stats["native"] == stats["numpy"]
        assert stats["native"][1]["gathers"] > 0

    def test_c_tie_hash_is_candidate_tie_hash(self):
        compiled()
        rng = np.random.default_rng(3)
        full = np.iinfo(np.uint64).max
        for _ in range(20):
            n = int(rng.integers(1, 400))
            nodes = rng.integers(0, full, n, dtype=np.uint64, endpoint=True)
            labels = rng.integers(0, full, n, dtype=np.uint64, endpoint=True)
            seed = int(rng.integers(0, full, dtype=np.uint64, endpoint=True))
            out = np.empty(n, dtype=np.uint64)
            native._lib.tie_hash(
                seed, n, nodes.ctypes.data, labels.ctypes.data, out.ctypes.data
            )
            np.testing.assert_array_equal(
                out, candidate_tie_hash(seed, nodes, labels)
            )

    def test_index_outside_its_table_raises_and_leaves_scratch_clean(self):
        compiled()
        graph = from_edges(3, [(0, 1), (1, 2)])
        labels = np.array([0, 1, 7], dtype=np.int64)  # 7 >= space
        ws = IterationWorkspace()
        args = (
            np.array([1], dtype=np.int64), graph.xadj, graph.adjncy,
            graph.adjwgt, labels, None, graph.vwgt,
            np.zeros(2, dtype=np.int64), np.full(2, 9, dtype=np.int64), None,
            0, 0, 2, ws,
        )
        with pytest.raises(ValueError, match="outside its table"):
            native.scan_chunk(*args)
        assert not ws.zeros("scan.acc", 2, np.int64).any()
        assert not ws.zeros("scan.mark", 2, np.uint8).any()
        with pytest.raises(TypeError, match="C-contiguous int64"):
            native.scan_chunk(args[0].astype(np.int32), *args[1:])


# ----------------------------------------------------------------------
# The loader: build, cache, refuse, fall back
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
    monkeypatch.setattr(native, "_resolution", None)
    monkeypatch.setattr(native, "_lib", None)
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
        and silently runs the fallback."""
        from fnmatch import fnmatch
        from importlib import resources
        from pathlib import Path

        source = resources.files("repro.engine").joinpath(native.SOURCE_NAME)
        assert source.is_file() and b"scan_chunk(" in source.read_bytes()
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[2] / "pyproject.toml"
        patterns = tomllib.loads(pyproject.read_text())["tool"]["setuptools"][
            "package-data"]["repro"]
        assert any(fnmatch(f"engine/{native.SOURCE_NAME}", p) for p in patterns)

    def test_builds_once_into_a_private_cache(self, cold):
        compiled_here = compiled()
        built = sorted(cold.iterdir())
        assert [p.name for p in built] == [os.path.basename(compiled_here.path)]
        assert built[0].suffix == ".so"
        assert cold.stat().st_mode & 0o777 == 0o700
        assert built[0].stat().st_mode & 0o022 == 0
        assert native.select()[0] is native.scan_chunk
        # a second resolution (a later process) finds the file, builds nothing
        stamp = built[0].stat().st_mtime_ns
        with mock.patch.object(native, "_resolution", None):
            assert native.resolve() == compiled_here
        assert sorted(cold.iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def check_falls_back(self, cause: str, expected: list[int]) -> None:
        with pytest.warns(RuntimeWarning) as caught:
            assert small_lp() == expected
            assert small_lp() == expected  # resolved once: no second warning
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert "native SCLP kernel unavailable" in str(caught[0].message)
        assert cause in str(caught[0].message)
        resolution = native.resolve()
        assert resolution.kernel == "numpy" and cause in resolution.reason
        assert native.select()[0] is kernels.scan_chunk
        assert resolution.header() == {
            "lp_kernel": "numpy", "lp_kernel_fallback": resolution.reason,
        }

    def test_no_compiler(self, cold, tmp_path, monkeypatch):
        expected = self.reference_labels()
        monkeypatch.setenv("PATH", str(tmp_path))
        self.check_falls_back("no C compiler", expected)
        assert not cold.exists()

    def test_compiler_exits_1(self, cold, tmp_path, monkeypatch):
        expected = self.reference_labels()
        fake_compiler(tmp_path, monkeypatch, build_status=1)
        self.check_falls_back("exited with status 1: fakecc: fatal", expected)
        assert list(cold.iterdir()) == []  # no partial or temporary file

    @needs_cc
    def test_cache_dir_cannot_be_created(self, cold, tmp_path):
        expected = self.reference_labels()
        (tmp_path / "cache").write_text("a file where the directory should go")
        self.check_falls_back("cache", expected)

    @needs_cc
    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root ignores directory permissions",
    )
    def test_cache_dir_read_only(self, cold):
        expected = self.reference_labels()
        cold.mkdir(mode=0o500)
        self.check_falls_back("Permission denied", expected)

    @needs_cc
    def test_foreign_owned_cache_is_refused(self, cold, monkeypatch):
        expected = self.reference_labels()
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        self.check_falls_back(f"not owned by uid {uid + 1}", expected)

    def test_writable_shared_object_is_refused(self, cold):
        expected = self.reference_labels()
        built = compiled()
        os.chmod(built.path, 0o775)
        with mock.patch.object(native, "_resolution", None):
            self.check_falls_back(
                f"{built.path} is group- or world-writable", expected
            )

    @staticmethod
    def reference_labels() -> list[int]:
        with mock.patch.object(
            native, "_resolution", native.Resolution(None, "reference")
        ):
            return small_lp()

    def test_two_cold_processes_leave_one_shared_object(self, tmp_path):
        compiled()
        code = (
            "from repro.engine import native\n"
            "r = native.resolve()\n"
            "assert r.path is not None, r.reason\n"
            "print(r.path)\n"
        )
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


# ----------------------------------------------------------------------
# The identity suites once more, on the NumPy kernel
# ----------------------------------------------------------------------

def traced_kernels(fn) -> set[str]:
    """The ``kernel`` attr of every ``lp.iteration`` span ``fn`` records,
    plus the header's ``lp_kernel``."""
    TRACER.enable(reset=True)
    try:
        fn()
        header = dict(TRACER.header)
        spans = [
            r for r in TRACER.snapshot()
            if r.get("type") == "span" and r.get("name") == "lp.iteration"
        ]
    finally:
        TRACER.disable()
    assert spans
    return {s["attrs"]["kernel"] for s in spans} | {header["lp_kernel"]}


@pytest.mark.usefixtures("numpy_kernel")
class TestSuitesOnTheNumpyKernel:
    def test_the_fixture_selects_numpy_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan, resolution = native.select()
        assert scan is kernels.scan_chunk and resolution.kernel == "numpy"

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

    def test_local_equals_spmd_equals_process(self):
        cross_suite.test_cluster_iteration_identity("rmat9", 64, None, run_spmd)
        cross_suite.test_refine_iteration_identity(
            "rmat9", 64, "frontier", run_spmd_processes
        )
        cross_suite.test_process_matches_threads_per_iteration(
            4, "refine", 64, "frontier"
        )

    def test_ranks_inherit_the_parents_choice(self):
        graph = cross_suite.make_graph("rmat9")
        assert traced_kernels(lambda: run_spmd_processes(
            2, cross_suite._pcluster, None, 2, graph=graph, seed=5,
        )) == {"numpy"}
        assert kernel_cache_leftovers() == []


def test_ranks_run_the_compiled_kernel_by_default():
    compiled()
    graph = cross_suite.make_graph("rmat9")
    assert traced_kernels(lambda: run_spmd_processes(
        2, cross_suite._pcluster, None, 2, graph=graph, seed=5,
    )) == {"native"}
    assert kernel_cache_leftovers() == []
