"""Fig 12 — Intel HiBench (Huge) on Frontera and Stampede2.

Paper speedups of MPI4Spark over Vanilla Spark: Frontera (896 cores) —
LDA 1.74x, SVM 1.17x, GMM 1.50x, Repartition 1.49x, NWeight 1.61x,
TeraSort comparable; Stampede2 (384 cores / 768 threads) — LR 2.17x,
GMM 1.09x, SVM 1.16x, Repartition 1.48x.
"""

import pytest

from benchmarks.conftest import FULL, HIBENCH_FIDELITY, run_once, write_bench_json
from repro.harness.experiments import fig12_hibench
from repro.harness.report import hibench_speedups, render_fig12
from repro.harness.systems import FRONTERA
from repro.spark.deploy import SparkSimCluster
from repro.workloads.hibench import SPECS


@pytest.fixture(scope="module")
def cells(jobs):
    return fig12_hibench(fidelity=HIBENCH_FIDELITY, jobs=jobs)


def _run_one(name: str, transport: str):
    sim = SparkSimCluster(FRONTERA, 16, transport)
    sim.launch()
    prof = SPECS[name].build_profile(FRONTERA, 16, fidelity=HIBENCH_FIDELITY)
    res = sim.run_profile(prof)
    sim.shutdown()
    return res


def test_fig12_matrix(benchmark, cells):
    res = run_once(benchmark, _run_one, "LDA", "mpi-opt")
    print()
    print(render_fig12(cells))
    assert res.total_seconds > 0
    # Headline shape: every paper speedup lands in its band.
    speedups = hibench_speedups(cells)
    for name, system, paper, (lo, hi) in TestFig12Shape.EXPECTED:
        got = speedups[(system, name)]["mpi_vs_vanilla"]
        assert lo < got < hi, (
            f"{name}@{system}: measured {got:.2f}, paper {paper}, band ({lo},{hi})"
        )
    terasort = speedups[("Frontera", "TeraSort")]["mpi_vs_vanilla"]
    assert 0.95 < terasort < 1.35


class TestFig12Shape:
    # (workload, system, paper MPI-vs-vanilla speedup, tolerance band)
    EXPECTED = [
        ("LDA", "Frontera", 1.74, (1.4, 2.2)),
        ("SVM", "Frontera", 1.17, (1.05, 1.35)),
        ("GMM", "Frontera", 1.50, (1.25, 1.85)),
        ("Repartition", "Frontera", 1.49, (1.25, 1.85)),
        ("NWeight", "Frontera", 1.61, (1.3, 2.1)),
        ("LR", "Stampede2", 2.17, (1.7, 2.7)),
        ("SVM", "Stampede2", 1.16, (1.02, 1.4)),
        ("Repartition", "Stampede2", 1.48, (1.2, 1.85)),
    ]

    def test_per_workload_speedups(self, cells):
        speedups = hibench_speedups(cells)
        for name, system, paper, (lo, hi) in self.EXPECTED:
            got = speedups[(system, name)]["mpi_vs_vanilla"]
            assert lo < got < hi, (
                f"{name}@{system}: measured {got:.2f}, paper {paper}, band ({lo},{hi})"
            )

    def test_terasort_comparable(self, cells):
        # Paper: "for TeraSort we are also performing comparably".
        got = hibench_speedups(cells)[("Frontera", "TeraSort")]["mpi_vs_vanilla"]
        assert 0.95 < got < 1.35

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
