"""Fig 11 — strong scaling of OHB benchmarks (224 GB fixed) on Frontera.

Paper, 448 cores: GroupByTest 3.72x / 2.06x over Vanilla / RDMA-Spark;
SortByTest 3.51x / 1.41x. Quick mode scales the cluster down (56 GiB at
2/4/8 workers keeps the per-core data of the paper's 224 GiB at 8/16/32);
REPRO_FULL=1 runs the paper geometry.
"""

import pytest

from benchmarks.conftest import (
    FULL,
    OHB_FIDELITY,
    OHB_WORKERS,
    ohb_payload,
    write_bench_json,
)
from repro.harness.experiments import fig11_strong_scaling
from repro.harness.report import ohb_speedups, render_ohb
from repro.util.units import GiB

# CI's gates job runs this file (pytest -m gate) to regenerate its payload,
# which carries the n_metrics census; it gates no paper claim.
pytestmark = pytest.mark.gate

DATA = 224 * GiB if FULL else 56 * GiB


@pytest.fixture(scope="module")
def cells(jobs):
    return fig11_strong_scaling(
        workers=OHB_WORKERS, data_bytes=DATA, fidelity=OHB_FIDELITY, jobs=jobs
    )


def test_fig11_sweep(cells):
    cell = next(
        c for c in cells
        if (c.workload, c.n_workers, c.transport)
        == ("SortByTest", OHB_WORKERS[0], "mpi-opt")
    )
    print()
    print(render_ohb(cells, f"Fig 11 — OHB strong scaling (Frontera, fixed {DATA >> 30} GiB)"))
    assert cell.total_seconds > 0
    # Headline shape: adding workers shrinks every transport's runtime,
    # and MPI stays fastest at every point.
    by = {}
    for c in cells:
        by.setdefault((c.workload, c.transport), []).append(
            (c.n_workers, c.total_seconds)
        )
    for key, points in by.items():
        points.sort()
        assert points[-1][1] < points[0][1], key
    speedups = ohb_speedups(cells)
    smallest = min(w for (_, w) in speedups)
    assert 2.8 < speedups[("GroupByTest", smallest)]["total_mpi_vs_vanilla"] < 5.0


class TestFig11Shape:
    def test_all_transports_speed_up_with_more_workers(self, cells):
        for workload in ("GroupByTest", "SortByTest"):
            for transport in ("nio", "rdma", "mpi-opt"):
                times = sorted(
                    (c.n_workers, c.total_seconds)
                    for c in cells
                    if c.workload == workload and c.transport == transport
                )
                # Strong scaling: more workers, less time.
                assert times[-1][1] < times[0][1]

    def test_smallest_cluster_ratios(self, cells):
        # Paper's 448-core (8-worker) point: GroupBy 3.72x/2.06x,
        # SortBy 3.51x/1.41x.
        speedups = ohb_speedups(cells)
        smallest = min(w for (_, w) in speedups)
        gb = speedups[("GroupByTest", smallest)]
        sb = speedups[("SortByTest", smallest)]
        assert 2.8 < gb["total_mpi_vs_vanilla"] < 5.0
        assert 1.4 < gb["total_mpi_vs_rdma"] < 3.0
        assert 2.6 < sb["total_mpi_vs_vanilla"] < 5.0
        assert 1.1 < sb["total_mpi_vs_rdma"] < 3.0

    def test_mpi_always_fastest(self, cells):
        by = {}
        for c in cells:
            by.setdefault((c.workload, c.n_workers), {})[c.transport] = c.total_seconds
        for key, per_t in by.items():
            assert per_t["mpi-opt"] == min(per_t.values()), key


def test_fig11_bench_json(cells):
    path = write_bench_json("fig11_strong_scaling", ohb_payload(cells))
    assert path.exists()
