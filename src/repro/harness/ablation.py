"""Ablation studies over the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the MPI4Spark design and measures
its contribution on a fixed GroupByTest scenario:

* ``ablate_io_threads``     — Netty event-loop pool size (the Optimized
  design blocks a loop thread per in-flight body; §5.1(3) of DESIGN.md),
* ``ablate_in_flight_window``     — Spark's ``maxBytesInFlight`` fetch window,
* ``ablate_poll_period``          — the Basic design's busy-poll granularity.

These run on a small fixed geometry (2 workers) so they complete quickly;
the *relative* effects are the point. Each ablation is a list of
:class:`~repro.harness.parallel.OhbSpec` cells run through the cached
:func:`~repro.harness.parallel.run_cells`: the first sweeps the spec's
``io_threads``, the last two one field of the
:class:`~repro.simnet.interconnect.CostModel` the cell is built with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.harness.parallel import OhbSpec, run_cells
from repro.harness.systems import FRONTERA
from repro.simnet.interconnect import DEFAULT_COST
from repro.util.units import GiB, MiB
from repro.workloads.ohb import GROUP_BY

# The fixed GroupByTest scenario every ablation perturbs.
BASE = OhbSpec(GROUP_BY.name, 2, 14 * GiB, "nio", 0.25, FRONTERA.name)


@dataclass
class AblationPoint:
    parameter: str
    value: object
    shuffle_read_s: float
    total_s: float


def _points(parameter: str, values, specs) -> list[AblationPoint]:
    """One point per (value, spec), the specs run through the run cache."""
    return [
        AblationPoint(parameter, value, cell.result.shuffle_read_seconds(),
                      cell.total_seconds)
        for value, cell in zip(values, run_cells(specs))
    ]


def ablate_io_threads(values=(1, 2, 4, 8)) -> list[AblationPoint]:
    """How many Netty IO threads does the Optimized design need?

    With one loop, every blocking MPI_Recv serializes all sources —
    head-of-line blocking the paper's real deployment avoids via Spark's
    multi-threaded transport pools.
    """
    # Needs several remote sources per executor for head-of-line
    # blocking to exist: use 6 workers (5 source channels each).
    spec = BASE._replace(n_workers=6, data_bytes=6 * 14 * GiB, transport="mpi-opt")
    return _points("io_threads", values, [spec._replace(io_threads=n) for n in values])


def _cost_sweep(parameter: str, field: str, transport: str, values) -> list[AblationPoint]:
    """One point per value of the cost-model ``field``, on ``transport``."""
    specs = [
        BASE._replace(transport=transport, cost=replace(DEFAULT_COST, **{field: value}))
        for value in values
    ]
    return _points(parameter, values, specs)


def ablate_in_flight_window(values=(4 * MiB, 16 * MiB, 48 * MiB, 192 * MiB)) -> list[AblationPoint]:
    """Spark's maxBytesInFlight: too small starves the NIC, too large
    mostly saturates (diminishing returns)."""
    return _cost_sweep("max_bytes_in_flight", "max_bytes_in_flight", "nio", values)


def ablate_poll_period(values=(1e-6, 5e-6, 50e-6, 500e-6)) -> list[AblationPoint]:
    """The Basic design's poll period: coarser polling adds discovery
    latency to every MPI message (the cost the paper abandoned it over)."""
    return _cost_sweep("poll_period_s", "basic_poll_period_s", "mpi-basic", values)
