"""Fig 11 — strong scaling of OHB benchmarks (224 GB fixed) on Frontera.

Quick mode scales the cluster down (``FIG11_DATA``); REPRO_FULL=1 runs
the paper geometry. The paper's 448-core ratios, and the bands the
smallest cluster is gated on, are rows of ``repro.harness.paper``,
checked by ``benchmarks/test_paper_scorecard.py``.
"""

import pytest

from benchmarks.conftest import (
    FIG11_DATA,
    OHB_FIDELITY,
    OHB_WORKERS,
    ohb_payload,
    write_bench_json,
)
from repro.harness.experiments import fig11_strong_scaling
from repro.harness.report import render_ohb

# CI's gates job runs this file (pytest -m gate) to regenerate its payload,
# which carries the n_metrics census; it gates no paper claim.
pytestmark = pytest.mark.gate


@pytest.fixture(scope="module")
def cells(jobs):
    return fig11_strong_scaling(
        workers=OHB_WORKERS, data_bytes=FIG11_DATA, fidelity=OHB_FIDELITY, jobs=jobs
    )


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

    def test_mpi_always_fastest(self, cells):
        by = {}
        for c in cells:
            by.setdefault((c.workload, c.n_workers), {})[c.transport] = c.total_seconds
        for key, per_t in by.items():
            assert per_t["mpi-opt"] == min(per_t.values()), key


def test_fig11_bench_json(cells):
    title = f"Fig 11 — OHB strong scaling (Frontera, fixed {FIG11_DATA >> 30} GiB)"
    print("\n" + render_ohb(cells, title))
    path = write_bench_json("fig11_strong_scaling", ohb_payload(cells))
    assert path.exists()
