"""Sample-trace memo: correctness of trace-once, replay-many.

The memo is an accelerator, never a correctness dependency: everything
here asserts that simulated outputs are identical with the memo cold or
warm and across worker processes — and that a trace never outlives the
process that recorded it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.harness import tracecache
from repro.harness.experiments import _run_ohb
from repro.harness.parallel import run_ohb_cells
from repro.harness.systems import FRONTERA
from repro.harness.tracecache import get_or_trace, trace_key
from repro.spark.tracing import SampleTrace
from repro.util.units import GiB
from repro.workloads.hibench import SPECS
from repro.workloads.ohb import GROUP_BY, SORT_BY


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts and ends with a cold memo."""
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
        a = trace_key("W", {"a": 1, "b": 2}, "costs")
        b = trace_key("W", {"b": 2, "a": 1}, "costs")
        assert a == b and len(a) == 64

    def test_differentiates_every_component(self):
        base = trace_key("W", {"a": 1}, "costs")
        assert trace_key("X", {"a": 1}, "costs") != base
        assert trace_key("W", {"a": 2}, "costs") != base
        assert trace_key("W", {"a": 1}, "other") != base


class TestMemo:
    def test_cleared_memo_reruns_the_sample_and_persists_nothing(
        self, tmp_path, monkeypatch
    ):
        # A trace must not outlive its process: a persisted one is keyed
        # by workload and parameters, not by the code that recorded it, so
        # an edit to run_sample / spark/local.py / util/serialization.py
        # would be answered with yesterday's trace.
        monkeypatch.chdir(tmp_path)
        runs = []

        def runner():
            runs.append(1)
            return GROUP_BY.trace_sample(num_pairs=200)

        args = ("W", {"n": 200}, runner)
        before = tracecache.trace_cache_stats()["sample_runs"]
        t1 = get_or_trace(*args)
        t2 = get_or_trace(*args)
        assert t2 is t1 and runs == [1]  # memo hit
        tracecache.clear_memory_cache()
        t3 = get_or_trace(*args)
        assert runs == [1, 1]  # nothing but the memo could have answered
        assert tracecache.trace_cache_stats()["sample_runs"] == before + 2
        assert _canon_trace(t3) == _canon_trace(t1)
        assert tracecache.clear_disk_cache() == 0
        assert os.listdir(tmp_path) == []


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
    def test_ohb_profiles_equal_cold_and_warm(self):
        # The tentpole assertion: scaling is split from trace generation,
        # so the scaled profile cannot depend on where the trace came from.
        build = lambda: GROUP_BY.build_profile(FRONTERA, 4, 4 * GiB, fidelity=0.25)
        cold = _canon_profile(build())
        warm = _canon_profile(build())
        tracecache.clear_memory_cache()
        recold = _canon_profile(build())
        assert cold == warm == recold

    def test_one_sample_run_per_workload_across_worker_counts(self):
        # The sample key is (workload, sample-params): worker count and
        # data size scale the profile afterwards and never enter it, so a
        # sweep from a cold memo executes each workload's sample program
        # exactly once.
        before = tracecache.trace_cache_stats()["sample_runs"]
        for workload in (GROUP_BY, SORT_BY):
            for n_workers in (2, 4, 8):
                workload.build_profile(
                    FRONTERA, n_workers, n_workers * 14 * GiB, fidelity=0.25
                )
        assert tracecache.trace_cache_stats()["sample_runs"] - before == 2

    def test_fig9_and_fig10_shaped_rows_identical_across_cache_states(self):
        # Golden-row identity at simulation level: one cheap fig-9-shaped
        # cell (2w) and one fig-10-shaped cell (4w), for both OHB
        # workloads, with the memo cold, warm and cold again.
        def rows():
            return [
                _canon_cell(_run_ohb(GROUP_BY, 2, 1 * GiB, "nio", 0.05)),
                _canon_cell(_run_ohb(SORT_BY, 4, 1 * GiB, "mpi-opt", 0.05)),
            ]

        cold = rows()
        warm = rows()
        tracecache.clear_memory_cache()
        recold = rows()
        assert cold == warm == recold

    def test_fig12_shaped_hibench_trace_identical_across_cache_states(self):
        # HiBench profiles are analytic, so the memoised artifact here is
        # the sample trace itself (the fig-12 correctness-side input).
        spec = SPECS["TeraSort"]
        cold = _canon_trace(spec.sample_trace())
        warm = _canon_trace(spec.sample_trace())
        uncached = _canon_trace(spec.trace_sample())
        assert cold == warm == uncached


class TestParallelWorkers:
    def test_jobs1_vs_jobs4_rows_identical(self, monkeypatch):
        # Pool workers are fresh processes with cold memos and no store
        # to share: each records its own sample trace, and rows must be
        # identical to the serial run. Run-cache off so the jobs=4 sweep
        # really simulates (a warm run cache would skip execution
        # entirely and prove nothing about the traces).
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
