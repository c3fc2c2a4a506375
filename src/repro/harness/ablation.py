"""Ablation studies over the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the MPI4Spark design and measures
its contribution on a fixed GroupByTest scenario:

* ``ablate_io_threads``     — Netty event-loop pool size (the Optimized
  design blocks a loop thread per in-flight body; §5.1(3) of DESIGN.md),
* ``ablate_rendezvous_threshold`` — MPI's eager→rendezvous switch point,
* ``ablate_in_flight_window``     — Spark's ``maxBytesInFlight`` fetch window,
* ``ablate_poll_period``          — the Basic design's busy-poll granularity.

These run on a small fixed geometry (2 workers) so they complete quickly;
the *relative* effects are the point. The last three vary one field of
the :class:`~repro.simnet.interconnect.CostModel` each cluster is built
with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.harness.systems import FRONTERA
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB, KiB, MiB
from repro.workloads.ohb import GROUP_BY


@dataclass
class AblationPoint:
    parameter: str
    value: object
    shuffle_read_s: float
    total_s: float


def _run(transport: str, n_workers: int = 2, data=14 * GiB, io_threads: int = 8,
         fidelity: float = 0.25, cost: CostModel = DEFAULT_COST) -> tuple[float, float]:
    sim = SparkSimCluster(FRONTERA, n_workers, transport, io_threads=io_threads,
                          cost=cost)
    sim.launch()
    profile = GROUP_BY.build_profile(FRONTERA, n_workers, data, fidelity=fidelity)
    result = sim.run_profile(profile)
    sim.shutdown()
    return result.shuffle_read_seconds(), result.total_seconds


def ablate_io_threads(values=(1, 2, 4, 8)) -> list[AblationPoint]:
    """How many Netty IO threads does the Optimized design need?

    With one loop, every blocking MPI_Recv serializes all sources —
    head-of-line blocking the paper's real deployment avoids via Spark's
    multi-threaded transport pools.
    """
    points = []
    for n in values:
        # Needs several remote sources per executor for head-of-line
        # blocking to exist: use 6 workers (5 source channels each).
        read, total = _run("mpi-opt", n_workers=6, data=6 * 14 * GiB, io_threads=n)
        points.append(AblationPoint("io_threads", n, read, total))
    return points


def _cost_sweep(parameter: str, field: str, transport: str, values) -> list[AblationPoint]:
    """One point per value of the cost-model ``field``, on ``transport``."""
    points = []
    for value in values:
        read, total = _run(transport, cost=replace(DEFAULT_COST, **{field: value}))
        points.append(AblationPoint(parameter, value, read, total))
    return points


def ablate_rendezvous_threshold(values=(4 * KiB, 16 * KiB, 256 * KiB, 4 * MiB)) -> list[AblationPoint]:
    """Eager/rendezvous switch: eager copies buffer large payloads; late
    rendezvous handshakes delay large transfers behind recv posting."""
    return _cost_sweep("rendezvous_threshold", "rendezvous_threshold", "mpi-opt", values)


def ablate_in_flight_window(values=(4 * MiB, 16 * MiB, 48 * MiB, 192 * MiB)) -> list[AblationPoint]:
    """Spark's maxBytesInFlight: too small starves the NIC, too large
    mostly saturates (diminishing returns)."""
    return _cost_sweep("max_bytes_in_flight", "max_bytes_in_flight", "nio", values)


def ablate_poll_period(values=(1e-6, 5e-6, 50e-6, 500e-6)) -> list[AblationPoint]:
    """The Basic design's poll period: coarser polling adds discovery
    latency to every MPI message (the cost the paper abandoned it over)."""
    return _cost_sweep("poll_period_s", "basic_poll_period_s", "mpi-basic", values)
