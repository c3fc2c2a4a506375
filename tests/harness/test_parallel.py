"""Parallel experiment harness: determinism and jobs plumbing."""

from dataclasses import replace

import pytest

from repro.harness.parallel import OhbSpec, parallel_map, resolve_jobs, run_cells
from repro.harness.systems import FRONTERA
from repro.simnet.interconnect import DEFAULT_COST
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY, SORT_BY


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_inline(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_preserves_order(self):
        assert parallel_map(_square, list(range(8)), jobs=2) == [
            x * x for x in range(8)
        ]

    def test_single_item_skips_pool(self):
        assert parallel_map(_square, [5], jobs=4) == [25]


def _row(cell):
    return (
        cell.workload,
        cell.n_workers,
        cell.transport,
        cell.total_seconds,
        cell.result.stage_seconds,
    )


class TestJobsDeterminism:
    @pytest.fixture(scope="class")
    def specs(self):
        # Cheap cells: tiny data, low fidelity — this is about plumbing,
        # not simulation scale. The last two are a cost sweep: one cell
        # under two models.
        specs = [
            OhbSpec(workload.name, 2, 1 * GiB, transport, 0.05, FRONTERA.name)
            for workload in (GROUP_BY, SORT_BY)
            for transport in ("nio", "mpi-opt")
        ]
        return specs + [
            specs[0]._replace(cost=replace(DEFAULT_COST, max_bytes_in_flight=window))
            for window in (4 << 20, 16 << 20)
        ]

    def test_rows_identical_across_jobs_counts(self, specs, monkeypatch):
        # Run-cache off: the point is that *executions* agree across
        # worker counts, not that the second sweep replays the first.
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        serial = run_cells(specs, jobs=1)
        fanned = run_cells(specs, jobs=4)
        assert [_row(c) for c in serial] == [_row(c) for c in fanned]

    def test_row_order_follows_spec_order(self, specs):
        cells = run_cells(specs, jobs=4)
        assert [(c.workload, c.transport) for c in cells] == [
            (s.workload, s.transport) for s in specs
        ]
