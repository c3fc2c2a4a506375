"""Fig 10 — weak scaling of OHB GroupByTest/SortByTest on Frontera.

Paper headline numbers (448 cores / 112 GB unless noted):

* GroupByTest: MPI4Spark 4.23x over Vanilla, 2.04x over RDMA-Spark;
  shuffle read 13.08x / 5.56x.
* SortByTest: 4.31x / 1.60x total; shuffle read 12.78x / 3.19x.
* At 1792 cores / 448 GB: GroupBy 3.78x / 2.07x, SortBy 3.44x / 1.66x.

Default (quick) mode scales the worker counts down; the per-worker data
volume (14 GiB) and every code path match the paper geometry. REPRO_FULL=1
runs 8/16/32 workers.
"""

import pytest

from benchmarks.conftest import (
    FULL,
    OHB_FIDELITY,
    OHB_WORKERS,
    ohb_payload,
    run_once,
    write_bench_json,
)
from repro.harness.experiments import _run_ohb, fig10_weak_scaling
from repro.harness.parallel import run_ohb_cell
from repro.harness.report import ohb_speedups, render_ohb
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY


@pytest.fixture(scope="module")
def cells(jobs):
    return fig10_weak_scaling(workers=OHB_WORKERS, fidelity=OHB_FIDELITY, jobs=jobs)


def test_fig10_sweep(benchmark, cells):
    # The timed unit is one full cell; the fixture holds the whole sweep.
    cell = run_once(
        benchmark, _run_ohb, GROUP_BY, OHB_WORKERS[0],
        OHB_WORKERS[0] * 14 * GiB, "mpi-opt", OHB_FIDELITY,
    )
    print()
    print(render_ohb(cells, "Fig 10 — OHB weak scaling (Frontera, 14 GiB/worker)"))
    assert cell.total_seconds > 0
    # Headline shape: IPoIB > RDMA > MPI everywhere, with GroupByTest's
    # 8-worker ratios in the paper's ballpark (4.23x total, 13.08x read).
    speedups = ohb_speedups(cells)
    for key, entry in speedups.items():
        assert entry["total_mpi_vs_vanilla"] > 1.0, key
        assert entry["total_mpi_vs_rdma"] > 1.0, key
    gb_key = ("GroupByTest", 8) if ("GroupByTest", 8) in speedups else max(
        k for k in speedups if k[0] == "GroupByTest"
    )
    entry = speedups[gb_key]
    # Paper bands hold at the full geometry + fidelity; quick mode folds
    # tasks (bigger chunks, fewer streams), which shifts the read ratio.
    total_band = (3.2, 5.5) if FULL else (2.5, 5.5)
    read_band = (9.0, 17.0) if FULL else (4.5, 18.0)
    assert total_band[0] < entry["total_mpi_vs_vanilla"] < total_band[1]
    assert read_band[0] < entry["read_mpi_vs_vanilla"] < read_band[1]


class TestFig10Shape:
    def test_mpi_wins_everywhere(self, cells):
        speedups = ohb_speedups(cells)
        for key, entry in speedups.items():
            assert entry["total_mpi_vs_vanilla"] > 1.0, key
            assert entry["total_mpi_vs_rdma"] > 1.0, key

    def test_groupby_headline_ratios(self, cells):
        # At the 8-worker geometry the paper reports 4.23x / 2.04x total
        # and 13.08x / 5.56x shuffle-read. Accept the right ballpark
        # (quick mode's task folding shifts the read ratio somewhat).
        speedups = ohb_speedups(cells)
        key = ("GroupByTest", max(w for (_, w) in speedups))
        entry = speedups[("GroupByTest", 8)] if ("GroupByTest", 8) in speedups else speedups[key]
        total_band = (3.2, 5.5) if FULL else (2.5, 5.5)
        read_band = (9.0, 17.0) if FULL else (4.5, 18.0)
        assert total_band[0] < entry["total_mpi_vs_vanilla"] < total_band[1]
        assert 1.4 < entry["total_mpi_vs_rdma"] < 3.0
        assert read_band[0] < entry["read_mpi_vs_vanilla"] < read_band[1]
        assert 2.5 < entry["read_mpi_vs_rdma"] < 8.0

    def test_sortby_ratios(self, cells):
        speedups = ohb_speedups(cells)
        key = ("SortByTest", 8) if ("SortByTest", 8) in speedups else max(
            k for k in speedups if k[0] == "SortByTest"
        )
        entry = speedups[key]
        assert 3.0 < entry["total_mpi_vs_vanilla"] < 5.5
        assert 1.2 < entry["total_mpi_vs_rdma"] < 3.0

    def test_ordering_vanilla_rdma_mpi(self, cells):
        by = {}
        for c in cells:
            by.setdefault((c.workload, c.n_workers), {})[c.transport] = c.total_seconds
        for key, per_t in by.items():
            assert per_t["mpi-opt"] < per_t["rdma"] < per_t["nio"], key

    def test_weak_scaling_roughly_flat_for_mpi(self, cells):
        # Weak scaling: per-worker data constant, so MPI's (NIC-bound)
        # runtime should grow only mildly with scale.
        times = sorted(
            (c.n_workers, c.total_seconds)
            for c in cells
            if c.workload == "GroupByTest" and c.transport == "mpi-opt"
        )
        assert times[-1][1] < times[0][1] * 2.5


def test_groupby_64w_mpi_basic_completes():
    # The widest mpi-basic world anything in the tree runs (~25 s of host
    # time, poll/channel-dominated): reduced data and fidelity, un-timed.
    # It only has to finish and to have moved its shuffle over the wire.
    cell = run_ohb_cell(
        (GROUP_BY.name, 64, 64 * 2 * GiB, "mpi-basic", 0.1, "Frontera")
    )
    assert cell.total_seconds > 0
    assert cell.result.metrics.value("spark.scheduler.remote_fetch_bytes") > 0


def test_fig10_bench_json(cells):
    path = write_bench_json("fig10_weak_scaling", ohb_payload(cells))
    assert path.exists()
