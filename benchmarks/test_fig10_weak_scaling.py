"""Fig 10 — weak scaling of OHB GroupByTest/SortByTest on Frontera.

Default (quick) mode scales the worker counts down; the per-worker data
volume (14 GiB) and every code path match the paper geometry. REPRO_FULL=1
runs 8/16/32 workers. The paper's ratios, and the bands the 8-worker
(448-core) cell is gated on, are rows of ``repro.harness.paper``, checked
by ``benchmarks/test_paper_scorecard.py``.
"""

import pytest

from benchmarks.conftest import OHB_FIDELITY, OHB_WORKERS, ohb_payload, write_bench_json
from repro.harness.experiments import fig10_weak_scaling
from repro.harness.parallel import OhbSpec, run_cell
from repro.harness.report import ohb_speedups, render_ohb
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

# CI's gates job runs this file (pytest -m gate) to regenerate its payload,
# which carries the n_metrics census; it gates no paper claim.
pytestmark = pytest.mark.gate


@pytest.fixture(scope="module")
def cells(jobs):
    return fig10_weak_scaling(workers=OHB_WORKERS, fidelity=OHB_FIDELITY, jobs=jobs)


class TestFig10Shape:
    def test_mpi_wins_everywhere(self, cells):
        speedups = ohb_speedups(cells)
        for key, entry in speedups.items():
            assert entry["total_mpi_vs_vanilla"] > 1.0, key
            assert entry["total_mpi_vs_rdma"] > 1.0, key

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
    cell = run_cell(OhbSpec(GROUP_BY.name, 64, 64 * 2 * GiB, "mpi-basic", 0.1, "Frontera"))
    assert cell.total_seconds > 0
    assert cell.result.metrics.value("spark.scheduler.remote_fetch_bytes") > 0


def test_fig10_bench_json(cells):
    print("\n" + render_ohb(cells, "Fig 10 — OHB weak scaling (Frontera, 14 GiB/worker)"))
    path = write_bench_json("fig10_weak_scaling", ohb_payload(cells))
    assert path.exists()
