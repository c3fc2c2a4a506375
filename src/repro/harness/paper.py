"""Every number the paper reports for Figs 8-12, as one table, and a scorer.

A row's ``role`` is ``"fit"`` when a model constant was set from it and
cites it: the Fig-8 latency constants and the loaded IPoIB / RDMA
fractions 0.039 / 0.092 (``simnet/interconnect.py``), and the HiBench
shuffle volumes (``workloads/hibench/suite.py``; Stampede2 GMM, SVM and
Repartition reuse Frontera's, so they are held out). Every other row is
``"held-out"``: the model predicts it. ``band`` is the open ``(lo, hi)``
the benchmarks gate on (``None``: reported only); ``full_band`` replaces
it under ``REPRO_FULL=1``. Metrics are the keys of ``ohb_speedups`` and
``hibench_speedups`` (``repro.harness.report``); ``benchmarks/
test_paper_scorecard.py`` maps points onto cells. Nothing the ``bench/``
benchmark imports may import this module.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional


class PaperRow(NamedTuple):
    figure: str
    point: tuple  # (workload or message size, system, paper cores or None)
    metric: str
    paper: float
    role: str  # "fit" or "held-out"
    band: Optional[tuple[float, float]] = None
    full_band: Optional[tuple[float, float]] = None

    @property
    def key(self) -> tuple:
        return (self.figure, self.point, self.metric)


def _ohb(fig, workload, cores, metric, paper, role="held-out", band=None, full_band=None):
    return PaperRow(fig, (workload, "Frontera", cores), metric, paper, role, band, full_band)


def _hibench(workload, system, paper, role, band=None, metric="mpi_vs_vanilla"):
    cores = {"Frontera": 896, "Stampede2": 384}[system]
    return PaperRow("Fig 12", (workload, system, cores), metric, paper, role, band)


TOTAL_V, TOTAL_R = "total_mpi_vs_vanilla", "total_mpi_vs_rdma"
READ_V, READ_R = "read_mpi_vs_vanilla", "read_mpi_vs_rdma"

PAPER: tuple[PaperRow, ...] = (
    PaperRow("Fig 8", ("4 MiB", "Internal Cluster", None), "mpi_vs_nio", 9.0, "fit",
             (7.0, 11.0)),
    _ohb("Fig 10", "GroupByTest", 448, TOTAL_V, 4.23, band=(2.5, 5.5), full_band=(3.2, 5.5)),
    _ohb("Fig 10", "GroupByTest", 448, TOTAL_R, 2.04, band=(1.4, 3.0)),
    _ohb("Fig 10", "GroupByTest", 448, READ_V, 13.08, "fit", (4.5, 18.0), (9.0, 17.0)),
    _ohb("Fig 10", "GroupByTest", 448, READ_R, 5.56, "fit", (2.5, 8.0)),
    _ohb("Fig 10", "SortByTest", 448, TOTAL_V, 4.31, band=(3.0, 5.5)),
    _ohb("Fig 10", "SortByTest", 448, TOTAL_R, 1.60, band=(1.2, 3.0)),
    _ohb("Fig 10", "SortByTest", 448, READ_V, 12.78),
    _ohb("Fig 10", "SortByTest", 448, READ_R, 3.19),
    _ohb("Fig 10", "GroupByTest", 1792, TOTAL_V, 3.78),
    _ohb("Fig 10", "GroupByTest", 1792, TOTAL_R, 2.07),
    _ohb("Fig 10", "SortByTest", 1792, TOTAL_V, 3.44),
    _ohb("Fig 10", "SortByTest", 1792, TOTAL_R, 1.66),
    _ohb("Fig 11", "GroupByTest", 448, TOTAL_V, 3.72, band=(2.8, 5.0)),
    _ohb("Fig 11", "GroupByTest", 448, TOTAL_R, 2.06, band=(1.4, 3.0)),
    _ohb("Fig 11", "SortByTest", 448, TOTAL_V, 3.51, band=(2.6, 5.0)),
    _ohb("Fig 11", "SortByTest", 448, TOTAL_R, 1.41, band=(1.1, 3.0)),
    _hibench("LDA", "Frontera", 1.74, "fit", (1.4, 2.2)),
    _hibench("LDA", "Frontera", 1.66, "held-out", metric="mpi_vs_rdma"),
    _hibench("SVM", "Frontera", 1.17, "fit", (1.05, 1.35)),
    _hibench("SVM", "Frontera", 1.10, "held-out", metric="mpi_vs_rdma"),
    _hibench("GMM", "Frontera", 1.50, "fit", (1.25, 1.85)),
    _hibench("Repartition", "Frontera", 1.49, "fit", (1.25, 1.85)),
    _hibench("NWeight", "Frontera", 1.61, "fit", (1.3, 2.1)),
    _hibench("TeraSort", "Frontera", 1.0, "fit", (0.95, 1.35)),  # "comparable"
    _hibench("LR", "Stampede2", 2.17, "fit", (1.7, 2.7)),
    _hibench("GMM", "Stampede2", 1.09, "held-out"),
    _hibench("SVM", "Stampede2", 1.16, "held-out", (1.02, 1.4)),
    _hibench("Repartition", "Stampede2", 1.48, "held-out", (1.2, 1.85)),
)

ROLES = ("fit", "held-out")


class Scored(NamedTuple):
    row: PaperRow
    measured: Optional[float]  # None: the geometry does not run this point
    err_pct: Optional[float]  # signed, 100 * (measured - paper) / paper


def score(measured: Mapping[tuple, Optional[float]]) -> list[Scored]:
    """Score ``measured`` (``PaperRow.key`` -> value) against every row."""
    return [
        Scored(row, v, None if v is None else 100.0 * (v - row.paper) / row.paper)
        for row in PAPER
        for v in (measured.get(row.key),)
    ]


def mean_abs_err(scored: list[Scored], role: str) -> Optional[float]:
    """Mean |err| in percent over the measured rows of ``role``."""
    errs = [abs(s.err_pct) for s in scored if s.row.role == role and s.err_pct is not None]
    return sum(errs) / len(errs) if errs else None
