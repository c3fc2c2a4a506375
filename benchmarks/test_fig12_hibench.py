"""Fig 12 — Intel HiBench (Huge) on Frontera and Stampede2.

The paper's speed-ups of MPI4Spark over Vanilla Spark (and over
RDMA-Spark where it reports one), with their bands, are rows of
``repro.harness.paper``, checked by ``benchmarks/test_paper_scorecard.py``.
The tests here check the shape only.
"""

import pytest

from benchmarks.conftest import HIBENCH_FIDELITY, write_bench_json
from repro.harness.experiments import fig12_hibench
from repro.harness.report import hibench_speedups


@pytest.fixture(scope="module")
def cells(jobs):
    return fig12_hibench(fidelity=HIBENCH_FIDELITY, jobs=jobs)


class TestFig12Shape:
    def test_lda_has_largest_frontera_ml_gain(self, cells):
        speedups = hibench_speedups(cells)
        lda = speedups[("Frontera", "LDA")]["mpi_vs_vanilla"]
        for other in ("SVM", "GMM"):
            assert lda > speedups[("Frontera", other)]["mpi_vs_vanilla"]

    def test_rdma_between_vanilla_and_mpi_on_lda(self, cells):
        speedups = hibench_speedups(cells)
        entry = speedups[("Frontera", "LDA")]
        assert 1.0 < entry["mpi_vs_rdma"] < entry["mpi_vs_vanilla"]


def test_fig12_bench_json(cells):
    path = write_bench_json(
        "fig12_hibench",
        {
            "cells": [
                {
                    "workload": c.workload,
                    "system": c.system,
                    "transport": c.transport,
                    "total_seconds": c.total_seconds,
                }
                for c in cells
            ]
        },
    )
    assert path.exists()
