"""Harness tests: systems, profiles, experiments plumbing, report rendering."""

import numpy as np
import pytest

from repro.harness.experiments import (
    _run_ohb,
    table1_features,
    table3_systems,
    table4_workloads,
)
from repro.harness.pingpong import run_pingpong
from repro.harness.profile import (
    _spread,
    scaled_read_matrices,
    spread_cpu,
)
from repro.harness.report import (
    LEGEND,
    ohb_speedups,
    render_fig8,
    render_ohb,
    render_table,
)
from repro.harness.systems import FRONTERA, INTERNAL_CLUSTER, STAMPEDE2, SYSTEMS
from repro.util.units import GiB, KiB, MiB
from repro.workloads.ohb import GROUP_BY


class TestSystems:
    def test_table3_values(self):
        assert FRONTERA.cores_per_node == 56
        assert FRONTERA.num_nodes == 18
        assert FRONTERA.interconnect == "IB-HDR"
        assert STAMPEDE2.hyperthreading
        assert STAMPEDE2.threads_per_node == 112
        assert INTERNAL_CLUSTER.num_nodes == 2
        assert INTERNAL_CLUSTER.cores_per_node == 28
        assert INTERNAL_CLUSTER.interconnect == "IB-EDR"

    def test_registry(self):
        assert set(SYSTEMS) == {"Frontera", "Stampede2", "Internal Cluster"}


class TestProfileHelpers:
    def test_spread_conserves_total(self):
        parts = _spread(1000.0, 7, cv=0.2, seed=3)
        assert parts.sum() == pytest.approx(1000.0)
        assert (parts > 0).all()

    def test_spread_zero_cv_uniform(self):
        parts = _spread(100.0, 4, cv=0.0, seed=1)
        assert np.allclose(parts, 25.0)

    def test_spread_invalid_n(self):
        with pytest.raises(ValueError):
            _spread(1.0, 0, 0.1, 1)

    def test_spread_cpu_is_per_core_work(self):
        # 1000 core-seconds on 100 cores -> 10 s/task regardless of folding.
        for n_tasks in (100, 50, 25):
            parts = spread_cpu(1000.0, n_tasks, 100, cv=0.0, seed=1)
            assert np.allclose(parts, 10.0)

    def test_scaled_read_matrices_shapes(self):
        fetch, blocks = scaled_read_matrices(
            total_bytes=1e9, n_tasks=16, n_executors=4, n_map_tasks=16, cv=0.1,
        )
        assert fetch.shape == (16, 4)
        assert blocks.shape == (16, 4)
        assert fetch.sum() == pytest.approx(1e9, rel=1e-6)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table([{"a": "x", "b": "1"}, {"a": "yy", "b": "22"}], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_empty(self):
        assert "(empty)" in render_table([], "T")

    def test_render_fig8(self):
        results = {
            "netty-nio": run_pingpong("nio", [1 * KiB], iterations=1),
            "netty-mpi": run_pingpong("mpi-basic", [1 * KiB], iterations=1),
        }
        text = render_fig8(results)
        assert "Netty+MPI" in text and "Speedup" in text

    def test_ohb_render_and_speedups(self):
        cells = [
            _run_ohb(GROUP_BY, 2, 4 * GiB, t, fidelity=0.25)
            for t in ("nio", "rdma", "mpi-opt")
        ]
        text = render_ohb(cells, "t")
        assert "IPoIB" in text and "MPI" in text and "vs IPoIB" in text
        speedups = ohb_speedups(cells)
        entry = speedups[("GroupByTest", 2)]
        assert entry["total_mpi_vs_vanilla"] > 1.0
        assert entry["read_mpi_vs_vanilla"] > entry["total_mpi_vs_vanilla"]

    def test_legend_matches_paper(self):
        assert LEGEND["nio"] == "IPoIB"
        assert LEGEND["rdma"] == "RDMA"
        assert LEGEND["mpi-opt"] == "MPI"


class TestStaticTables:
    def test_table1_rows(self):
        rows = table1_features()
        assert len(rows) == 4
        assert rows[0]["RDMA-Spark"] == "no"  # single-interconnect only

    def test_table3_rows(self):
        rows = table3_systems()
        assert {r["System"] for r in rows} == set(SYSTEMS)

    def test_table4_covers_all_workloads(self):
        rows = table4_workloads()
        assert len(rows) == 9  # 2 OHB + 7 HiBench
        suites = {r["Suite"] for r in rows}
        assert suites == {"OSU HiBD (OHB)", "Intel HiBench"}
