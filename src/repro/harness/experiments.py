"""Experiment definitions: one function per paper table/figure.

Each function runs the relevant workloads across the paper's transport
matrix on the simulated system and returns structured rows; the report
module renders them in the shape the paper presents. ``fidelity`` trades
simulated-task granularity for wall-clock time (totals and therefore
stage-time ratios are preserved — see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.harness.parallel import HiBenchSpec, OhbSpec, run_cells
from repro.harness.pingpong import PingPongResult, run_pingpong
from repro.harness.systems import FRONTERA, INTERNAL_CLUSTER, STAMPEDE2, SYSTEMS
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.spark.deploy import RunResult, SparkSimCluster
from repro.util.units import GiB, KiB, MiB
from repro.workloads.hibench import SPECS
from repro.workloads.ohb import GROUP_BY, SORT_BY

# Paper figure legends: IPoIB = Vanilla Spark, RDMA = RDMA-Spark,
# MPI = MPI4Spark (Optimized).
OHB_TRANSPORTS = ("nio", "rdma", "mpi-opt")

FIG8_SMALL_SIZES = [1, 64, 256, 1 * KiB, 4 * KiB]
FIG8_LARGE_SIZES = [64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]


@dataclass
class OhbCell:
    """One (workload, scale, transport) end-to-end run."""

    workload: str
    n_workers: int
    total_cores: int
    data_bytes: int
    transport: str
    result: RunResult

    @property
    def total_seconds(self) -> float:
        return self.result.total_seconds


def _run_ohb(
    workload,
    n_workers: int,
    data_bytes: int,
    transport: str,
    fidelity: float,
    system=FRONTERA,
    obs_causal: bool = False,
    io_threads: int = 8,
    cost: CostModel = DEFAULT_COST,
) -> OhbCell:
    # Observability on: cells carry a MetricsSnapshot so reports can show
    # measured polling tax / event-loop busy fractions (Sec. VI-D).
    # ``obs_causal`` additionally attaches a flight recording for
    # critical-path analysis / the run report.
    sim = SparkSimCluster(
        system, n_workers, transport, io_threads=io_threads, obs_enabled=True,
        obs_causal=obs_causal, cost=cost,
    )
    sim.launch()
    profile = workload.build_profile(system, n_workers, data_bytes, fidelity=fidelity)
    result = sim.run_profile(profile)
    sim.shutdown()
    return OhbCell(
        workload=workload.name,
        n_workers=n_workers,
        total_cores=n_workers * sim.cores_per_executor,
        data_bytes=data_bytes,
        transport=transport,
        result=result,
    )


# ---------------------------------------------------------------------------
# Fig 8 — Netty-level ping-pong on the internal cluster (IB-EDR)
# ---------------------------------------------------------------------------

def fig8_pingpong(
    iterations: int = 4,
) -> dict[str, PingPongResult]:
    """Netty NIO vs Netty+MPI latency, small and large message sizes.

    The "Netty+MPI" curve uses the all-messages-over-MPI transport (the
    raw MPI-based Netty path the paper microbenchmarks); the paper's
    headline is ~9x at 4 MB.
    """
    sizes = FIG8_SMALL_SIZES + FIG8_LARGE_SIZES
    fabric = INTERNAL_CLUSTER.fabric
    return {
        "netty-nio": run_pingpong("nio", sizes, fabric, iterations),
        "netty-mpi": run_pingpong("mpi-basic", sizes, fabric, iterations),
    }


# ---------------------------------------------------------------------------
# Fig 9 — MPI4Spark-Basic vs MPI4Spark-Optimized vs Vanilla
# ---------------------------------------------------------------------------

def fig9_basic_vs_optimized(
    fidelity: float = 0.25, jobs: int | None = None
) -> list[OhbCell]:
    """GroupByTest and SortByTest at 28 GB / 112 cores and 56 GB / 224
    cores on Frontera (2 and 4 workers).

    Cells are independent simulations; ``jobs`` fans them over worker
    processes (row order and values are identical for any ``jobs``).
    """
    specs = [
        OhbSpec(workload.name, n_workers, data, transport, fidelity, FRONTERA.name)
        for workload in (GROUP_BY, SORT_BY)
        for n_workers, data in ((2, 28 * GiB), (4, 56 * GiB))
        for transport in ("nio", "mpi-basic", "mpi-opt")
    ]
    return run_cells(specs, jobs)


def fig9_critical_path(
    fidelity: float = 0.25,
    jobs: int | None = None,
    report_path: str | None = None,
) -> list[tuple[OhbCell, "CriticalPathReport"]]:
    """Causal critical-path decomposition of the Fig-9 GroupBy contrast.

    Runs the 2-worker / 28 GB GroupBy cell under every Fig-9 transport
    with ``obs_causal=True``, and decomposes each run's
    critical path into compute / serialize / queue / wire / poll-tax /
    fetch-wait segments.  The Basic design's poll-tax share is the
    measured form of the paper's Sec VI-D starvation claim.

    ``report_path`` additionally writes the Spark-UI-style HTML run
    report (stage Gantt, message timelines, the same tables) next to the
    ``BENCH_*.json`` files — e.g. ``results/fig9_critical_path.html``.
    """
    from repro.obs import analyze, write_report

    specs = [
        OhbSpec(GROUP_BY.name, 2, 28 * GiB, transport, fidelity, FRONTERA.name, True)
        for transport in ("nio", "mpi-basic", "mpi-opt")
    ]
    cells = run_cells(specs, jobs)
    pairs = [(cell, analyze(cell.result.flight, cell.transport)) for cell in cells]
    if report_path is not None:
        write_report(
            report_path,
            [(cell.result, cp) for cell, cp in pairs],
            title="Fig 9 GroupByTest — causal critical paths",
        )
    return pairs


# ---------------------------------------------------------------------------
# Fig 10 — weak scaling (14 GB/worker: 8 -> 112GB, 16 -> 224GB, 32 -> 448GB)
# ---------------------------------------------------------------------------

def fig10_weak_scaling(
    workers: Sequence[int] = (8, 16, 32),
    fidelity: float = 0.25,
    jobs: int | None = None,
) -> list[OhbCell]:
    specs = [
        OhbSpec(workload.name, n_workers, n_workers * 14 * GiB, transport, fidelity,
                FRONTERA.name)
        for workload in (GROUP_BY, SORT_BY)
        for n_workers in workers
        for transport in OHB_TRANSPORTS
    ]
    return run_cells(specs, jobs)


# ---------------------------------------------------------------------------
# Fig 11 — strong scaling (224 GB on 448..1792 cores)
# ---------------------------------------------------------------------------

def fig11_strong_scaling(
    workers: Sequence[int] = (8, 16, 32),
    data_bytes: int = 224 * GiB,
    fidelity: float = 0.25,
    jobs: int | None = None,
) -> list[OhbCell]:
    specs = [
        OhbSpec(workload.name, n_workers, data_bytes, transport, fidelity, FRONTERA.name)
        for workload in (GROUP_BY, SORT_BY)
        for n_workers in workers
        for transport in OHB_TRANSPORTS
    ]
    return run_cells(specs, jobs)


# ---------------------------------------------------------------------------
# Fig 12 — Intel HiBench on Frontera (a, b) and Stampede2 (c)
# ---------------------------------------------------------------------------

@dataclass
class HiBenchCell:
    workload: str
    system: str
    transport: str
    total_seconds: float


FIG12A_WORKLOADS = ("LDA", "SVM", "GMM", "Repartition")
FIG12B_WORKLOADS = ("NWeight", "TeraSort")
FIG12C_WORKLOADS = ("LR", "GMM", "SVM", "Repartition")


def fig12_hibench(
    fidelity: float = 0.25, jobs: int | None = None
) -> list[HiBenchCell]:
    """The full Fig-12 matrix.

    Frontera: 16 workers, 896 cores, transports nio/rdma/mpi-opt
    (RDMA-Spark numbers are omitted for GMM and Repartition, as in the
    paper — HiBench 7.0 did not support them).
    Stampede2: 8 workers, 96 threads each; no RDMA (OPA has no IB verbs).
    """
    rdma_unsupported = {"GMM", "Repartition"}  # HiBench 7.0 gap (paper)
    specs = [
        HiBenchSpec(name, FRONTERA.name, 16, transport, None, fidelity)
        for name in dict.fromkeys(FIG12A_WORKLOADS + FIG12B_WORKLOADS)
        for transport in OHB_TRANSPORTS
        if not (transport == "rdma" and name in rdma_unsupported)
    ]
    specs += [
        HiBenchSpec(name, STAMPEDE2.name, 8, transport, 96, fidelity)
        for name in dict.fromkeys(FIG12C_WORKLOADS)
        for transport in ("nio", "mpi-opt")  # no RDMA on Omni-Path
    ]
    return run_cells(specs, jobs)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_features() -> list[dict[str, str]]:
    """The paper's Table I feature-comparison matrix."""
    return [
        {
            "Features": "Support for Multiple Interconnects",
            "MPI4Spark": "yes", "RDMA-Spark": "no", "SparkUCX": "yes",
            "Spark+MPI": "yes", "Spark-MPI": "yes",
        },
        {
            "Features": "Adheres to Spark API",
            "MPI4Spark": "yes", "RDMA-Spark": "yes", "SparkUCX": "yes",
            "Spark+MPI": "no", "Spark-MPI": "yes",
        },
        {
            "Features": "Studies with Existing Benchmark Suites",
            "MPI4Spark": "yes", "RDMA-Spark": "yes", "SparkUCX": "N/A",
            "Spark+MPI": "yes", "Spark-MPI": "N/A",
        },
        {
            "Features": "Optimization Technique",
            "MPI4Spark": "MPI-Based Netty",
            "RDMA-Spark": "RDMA-Based BlockTransferService",
            "SparkUCX": "UCX-Based Shuffle Manager",
            "Spark+MPI": "Offload to shared memory and use MPI",
            "Spark-MPI": "N/A",
        },
    ]


def table3_systems() -> list[dict[str, str]]:
    """Table III hardware matrix, from the live SystemConfig objects."""
    rows = []
    for system in SYSTEMS.values():
        rows.append(
            {
                "System": system.name,
                "Nodes": str(system.num_nodes),
                "Processor": system.processor,
                "Clock": f"{system.clock_ghz} GHz",
                "Cores/node": str(system.cores_per_node),
                "HT": "2 threads/core" if system.hyperthreading else "no",
                "Interconnect": f"{system.interconnect} (100G)",
            }
        )
    return rows


def table4_workloads() -> list[dict[str, str]]:
    """Table IV benchmark inventory, from the live workload registry."""
    rows = [
        {
            "Suite": "OSU HiBD (OHB)",
            "Workload": w.name,
            "Category": "RDD Benchmarks",
            "Description": (
                "group values per key into one sequence"
                if w.name == "GroupByTest"
                else "sort the RDD by key"
            ),
        }
        for w in (GROUP_BY, SORT_BY)
    ]
    for spec in SPECS.values():
        rows.append(
            {
                "Suite": "Intel HiBench",
                "Workload": spec.name,
                "Category": spec.category,
                "Description": spec.description,
            }
        )
    return rows
