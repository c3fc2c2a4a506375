"""Sample-trace cache: correctness of the two-tier store.

The cache is an accelerator, never a correctness dependency: everything
here asserts that simulated outputs are identical with the cache cold,
warm (memo and disk), disabled, corrupted, or shared across worker
processes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.harness import tracecache
from repro.harness.experiments import _run_ohb
from repro.harness.parallel import run_ohb_cells
from repro.harness.systems import FRONTERA
from repro.harness.tracecache import (
    TRACE_SCHEMA,
    cache_dir,
    cache_enabled,
    get_or_trace,
    trace_key,
)
from repro.spark.tracing import SampleTrace
from repro.util.units import GiB
from repro.workloads.hibench import SPECS
from repro.workloads.ohb import GROUP_BY, SORT_BY


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private, empty disk store and a cold memo."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "tc"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    tracecache.clear_memory_cache()
    yield
    tracecache.clear_memory_cache()


def _canon_profile(p):
    out = [p.name, p.nominal_bytes, p.n_executors, p.cores_per_executor]
    for stage in p.stages:
        for k, v in sorted(vars(stage).items()):
            out.append((k, v.tolist() if isinstance(v, np.ndarray) else v))
    return repr(out)


def _canon_cell(cell):
    return (
        cell.workload,
        cell.n_workers,
        cell.transport,
        repr(cell.result.total_seconds),
        repr(sorted(cell.result.stage_seconds.items())),
    )


class TestKey:
    def test_stable_and_order_insensitive(self):
        a = trace_key("W", "v1", {"a": 1, "b": 2}, "costs")
        b = trace_key("W", "v1", {"b": 2, "a": 1}, "costs")
        assert a == b and len(a) == 64

    def test_differentiates_every_component(self):
        base = trace_key("W", "v1", {"a": 1}, "costs")
        assert trace_key("X", "v1", {"a": 1}, "costs") != base
        assert trace_key("W", "v2", {"a": 1}, "costs") != base
        assert trace_key("W", "v1", {"a": 2}, "costs") != base
        assert trace_key("W", "v1", {"a": 1}, "other") != base


class TestTiers:
    def test_memo_then_disk_then_runner(self):
        runs = []

        def runner():
            runs.append(1)
            return GROUP_BY.trace_sample(num_pairs=200)

        args = ("W", "v1", {"n": 200}, runner)
        t1 = get_or_trace(*args)
        t2 = get_or_trace(*args)
        assert t2 is t1 and runs == [1]  # memo hit
        tracecache.clear_memory_cache()
        t3 = get_or_trace(*args)
        assert runs == [1]  # disk hit, no re-execution
        assert _canon_trace(t3) == _canon_trace(t1)

    def test_disabled_runs_every_time_and_writes_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert not cache_enabled()
        runs = []

        def runner():
            runs.append(1)
            return GROUP_BY.trace_sample(num_pairs=200)

        get_or_trace("W", "v1", {"n": 200}, runner)
        get_or_trace("W", "v1", {"n": 200}, runner)
        assert runs == [1, 1]
        assert not cache_dir().exists()


def _canon_trace(t: SampleTrace) -> str:
    # stage_id/shuffle_id are process-global allocation counters — they
    # record *when in the process* a sample ran, not what it did, so
    # they are excluded from the measured-content comparison.
    out = [t.workload, t.sample_params, t.schema]
    for st in t.stages:
        for k, v in sorted(vars(st).items()):
            if k in ("stage_id", "shuffle_id"):
                continue
            out.append((k, v.tolist() if isinstance(v, np.ndarray) else v))
    return repr(out)


class TestProfileIdentity:
    def test_ohb_profiles_equal_cold_warm_disk_disabled(self, monkeypatch):
        # The tentpole assertion: scaling is split from trace generation,
        # so the scaled profile cannot depend on where the trace came from.
        build = lambda: GROUP_BY.build_profile(FRONTERA, 4, 4 * GiB, fidelity=0.25)
        cold = _canon_profile(build())
        warm = _canon_profile(build())
        tracecache.clear_memory_cache()
        disk = _canon_profile(build())
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        disabled = _canon_profile(build())
        assert cold == warm == disk == disabled

    def test_one_sample_run_per_workload_across_worker_counts(self):
        # The sample key is (workload, sample-params): worker count and
        # data size scale the profile afterwards and never enter it, so a
        # sweep from a cold store executes each workload's sample program
        # exactly once.
        before = tracecache.trace_cache_stats()["sample_runs"]
        for workload in (GROUP_BY, SORT_BY):
            for n_workers in (2, 4, 8):
                workload.build_profile(
                    FRONTERA, n_workers, n_workers * 14 * GiB, fidelity=0.25
                )
        assert tracecache.trace_cache_stats()["sample_runs"] - before == 2

    def test_fig9_and_fig10_shaped_rows_identical_across_cache_states(
        self, monkeypatch
    ):
        # Golden-row identity at simulation level: one cheap fig-9-shaped
        # cell (2w) and one fig-10-shaped cell (4w), for both OHB
        # workloads, with the cache cold, warm and disabled.
        def rows():
            return [
                _canon_cell(_run_ohb(GROUP_BY, 2, 1 * GiB, "nio", 0.05)),
                _canon_cell(_run_ohb(SORT_BY, 4, 1 * GiB, "mpi-opt", 0.05)),
            ]

        cold = rows()
        warm = rows()
        tracecache.clear_memory_cache()
        disk = rows()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        disabled = rows()
        assert cold == warm == disk == disabled

    def test_fig12_shaped_hibench_trace_identical_across_cache_states(
        self, monkeypatch
    ):
        # HiBench profiles are analytic, so the cached artifact here is
        # the sample trace itself (the fig-12 correctness-side input).
        spec = SPECS["TeraSort"]
        cold = _canon_trace(spec.sample_trace())
        warm = _canon_trace(spec.sample_trace())
        tracecache.clear_memory_cache()
        disk = _canon_trace(spec.sample_trace())
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        disabled = _canon_trace(spec.trace_sample())
        assert cold == warm == disk == disabled


class TestCorruption:
    def _entry_paths(self):
        return sorted(cache_dir().glob("*.pkl"))

    def test_truncated_pickle_falls_back_to_recompute(self):
        t1 = GROUP_BY.sample_trace()
        (path,) = self._entry_paths()
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        tracecache.clear_memory_cache()
        t2 = GROUP_BY.sample_trace()  # must not raise
        assert _canon_trace(t2) == _canon_trace(t1)
        assert tracecache.trace_cache_stats()["errors"] >= 1

    def test_garbage_bytes_fall_back_to_recompute(self):
        t1 = GROUP_BY.sample_trace()
        (path,) = self._entry_paths()
        path.write_bytes(b"not a pickle at all")
        tracecache.clear_memory_cache()
        t2 = GROUP_BY.sample_trace()
        assert _canon_trace(t2) == _canon_trace(t1)
        # The defective entry was rewritten with a valid one.
        tracecache.clear_memory_cache()
        before = tracecache.trace_cache_stats()["sample_runs"]
        GROUP_BY.sample_trace()
        assert tracecache.trace_cache_stats()["sample_runs"] == before

    def test_valid_pickle_with_wrong_key_is_stale(self):
        # An entry whose recorded key disagrees with its address (e.g. a
        # hand-copied file) must be treated as a miss, not trusted.
        t1 = GROUP_BY.sample_trace()
        (path,) = self._entry_paths()
        payload = {"schema": TRACE_SCHEMA, "key": "0" * 64, "trace": t1}
        path.write_bytes(pickle.dumps(payload))
        tracecache.clear_memory_cache()
        before = tracecache.trace_cache_stats()["sample_runs"]
        GROUP_BY.sample_trace()
        assert tracecache.trace_cache_stats()["sample_runs"] == before + 1


class TestParallelWorkers:
    def test_jobs1_vs_jobs4_rows_identical_shared_disk_cache(self, monkeypatch):
        # The disk tier is what lets pool workers (fresh processes, cold
        # memos) skip sample re-execution; rows must be identical to the
        # serial run either way. Run-cache off so the jobs=4 sweep really
        # simulates (a warm run cache would skip execution entirely and
        # prove nothing about the trace tier).
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        specs = [
            ("GroupByTest", 2, 1 * GiB, "nio", 0.05, "Frontera"),
            ("GroupByTest", 2, 1 * GiB, "mpi-opt", 0.05, "Frontera"),
            ("SortByTest", 2, 1 * GiB, "nio", 0.05, "Frontera"),
            ("SortByTest", 2, 1 * GiB, "mpi-opt", 0.05, "Frontera"),
        ]
        serial = [_canon_cell(c) for c in run_ohb_cells(specs, jobs=1)]
        parallel = [_canon_cell(c) for c in run_ohb_cells(specs, jobs=4)]
        assert serial == parallel
        # The parent process seeded the disk store; entries exist for
        # both workloads.
        assert len(sorted(cache_dir().glob("*.pkl"))) == 2
