"""Empirical validation harness for the what-if replay engine.

The replay engine (:mod:`repro.obs.whatif`) answers capacity-planning
questions analytically from a recorded trace.  This module keeps it
honest: for every fig9/fig10 cell it records a causally-traced baseline,
re-times it under each validation perturbation, then *re-simulates* the
same cell with the knob actually changed in the simulator and compares
the two walls.  A ground-truth cell is an ordinary cached
:class:`~repro.harness.parallel.OhbSpec` (:func:`truth_spec`): the link
rate is its ``link_rate`` field and every other knob is a field of the
:class:`~repro.simnet.interconnect.CostModel` it carries, so the run cache
stores it like any cell and a matrix that has been validated once on this
tree is re-validated without simulating.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Sequence

from repro.harness.parallel import OhbSpec, run_cells
from repro.obs.whatif import DEFAULT_GRID, IDENTITY, Perturbation, ReplayModel
from repro.simnet.interconnect import DEFAULT_COST
from repro.util.units import GiB

# The three perturbation kinds the acceptance gate requires (link rate,
# poll tax, serializer cost), one decisive step each: the planner grid's.
WHATIF_PERTURBATIONS: tuple[Perturbation, ...] = tuple(
    p for p in DEFAULT_GRID if p.name in ("2x NIC", "zero poll-tax", "2x serializer")
)

# Prediction-vs-simulation agreement gate (relative error).
WHATIF_TOLERANCE = 0.10


def truth_spec(
    cell: dict[str, Any], p: Perturbation, fidelity: float, system_name: str
) -> OhbSpec:
    """The OHB cell that re-simulates ``cell`` with ``p``'s knobs applied:
    the fabric line rate scaled by ``link_rate``, and a cost model whose
    Basic poll costs and ramdisk bandwidths are the defaults times the
    knob (at identity knobs, the default model)."""
    if p.compute != 1.0 or p.executors is not None:
        raise ValueError(
            f"no simulator ground truth for perturbation {p.name!r}: compute "
            "and executor re-width knobs are analytic-only"
        )
    c = DEFAULT_COST
    # Poll-tax scaling: cheaper polls *and* a proportionally shorter poll
    # period — poll_tax=0.0 is a free, instantly-reactive poll loop, the
    # simulator's closest realization of "no polling tax".
    cost = replace(
        c,
        select_now_cost_s=c.select_now_cost_s * p.poll_tax,
        iprobe_cost_s=c.iprobe_cost_s * p.poll_tax,
        basic_poll_period_s=c.basic_poll_period_s * p.poll_tax,
        ramdisk_write_Bps=c.ramdisk_write_Bps * p.serializer_rate,
        ramdisk_read_Bps=c.ramdisk_read_Bps * p.local_read_rate,
    )
    return OhbSpec(
        cell["workload"],
        cell["n_workers"],
        cell["data_bytes"],
        cell["transport"],
        fidelity,
        system_name,
        link_rate=p.link_rate,
        cost=cost,
    )


def whatif_cells(workers: Sequence[int] = (2, 4, 8)) -> list[dict[str, Any]]:
    """The validation matrix: the union of the fig9 and fig10 cell grids.

    fig9 (Basic vs Optimized) runs 2/4 workers at 28/56 GiB over
    ``nio``/``mpi-basic``/``mpi-opt``; fig10 (weak scaling) runs
    ``workers`` at 14 GiB/worker over ``nio``/``rdma``/``mpi-opt``.  The
    grids overlap (both scale 14 GiB per worker), so shared cells are
    simulated once and tagged with both figures.
    """
    from repro.harness.experiments import OHB_TRANSPORTS
    from repro.workloads.ohb import GROUP_BY, SORT_BY

    cells: dict[tuple, dict[str, Any]] = {}

    def add(figure: str, workload: str, n_workers: int, data: int, transport: str):
        key = (workload, n_workers, data, transport)
        cell = cells.setdefault(
            key,
            {
                "workload": workload,
                "n_workers": n_workers,
                "data_bytes": data,
                "transport": transport,
                "figures": [],
            },
        )
        if figure not in cell["figures"]:
            cell["figures"].append(figure)

    for workload in (GROUP_BY, SORT_BY):
        for n_workers, data in ((2, 28 * GiB), (4, 56 * GiB)):
            for transport in ("nio", "mpi-basic", "mpi-opt"):
                add("fig9", workload.name, n_workers, data, transport)
    for workload in (GROUP_BY, SORT_BY):
        for n_workers in workers:
            for transport in OHB_TRANSPORTS:
                add("fig10", workload.name, n_workers, n_workers * 14 * GiB, transport)
    return list(cells.values())


def validate_matrix(
    cells: Iterable[dict[str, Any]] | None = None,
    perturbations: Sequence[Perturbation] = WHATIF_PERTURBATIONS,
    fidelity: float = 0.25,
    jobs: int | None = None,
    system_name: str = "Frontera",
    tolerance: float = WHATIF_TOLERANCE,
) -> dict[str, Any]:
    """Record, replay and re-simulate every cell; return the BENCH payload.

    For each cell: one causally-traced baseline run, an identity replay
    (must reproduce the recorded wall exactly), and per perturbation an
    analytic prediction plus a ground-truth re-simulation.  The payload's
    ``cells`` rows carry ``predicted_s`` / ``simulated_s`` / ``error``
    (relative, prediction vs truth); ``summary`` aggregates the gate
    verdict.  Every field is simulated time, so the payload is a pure
    function of the arguments.
    """
    cells = list(whatif_cells() if cells is None else cells)
    perturbations = list(perturbations)

    base_specs = [
        truth_spec(c, IDENTITY, fidelity, system_name)._replace(obs_causal=True)
        for c in cells
    ]
    truth_specs = [
        truth_spec(c, p, fidelity, system_name) for c in cells for p in perturbations
    ]
    results = run_cells(base_specs + truth_specs, jobs)
    recorded, truths = results[: len(cells)], results[len(cells):]

    out_cells: list[dict[str, Any]] = []
    errors: list[float] = []
    n = len(perturbations)
    for i, (c, rec) in enumerate(zip(cells, recorded)):
        model = ReplayModel.from_result(rec.result)
        identity = model.retime(IDENTITY)
        row_dicts = []
        for p, truth in zip(perturbations, truths[i * n : (i + 1) * n]):
            pred = model.retime(p)
            sim_wall = truth.total_seconds
            error = pred.wall_s / sim_wall - 1.0
            errors.append(abs(error))
            row_dicts.append(
                {
                    "perturbation": p.name,
                    "knobs": p.describe(),
                    "predicted_s": pred.wall_s,
                    "simulated_s": sim_wall,
                    "error": error,
                    "within_tolerance": abs(error) <= tolerance,
                    "predicted_speedup": rec.total_seconds / pred.wall_s,
                    "simulated_speedup": rec.total_seconds / sim_wall,
                }
            )
        out_cells.append(
            {
                "workload": c["workload"],
                "n_workers": c["n_workers"],
                "data_bytes": c["data_bytes"],
                "transport": c["transport"],
                "figures": list(c["figures"]),
                "recorded_s": rec.total_seconds,
                "identity_replay_s": identity.wall_s,
                "identity_exact": identity.wall_s == rec.total_seconds,
                "rows": row_dicts,
            }
        )

    return {
        "fidelity": fidelity,
        "tolerance": tolerance,
        "perturbations": [
            {"name": p.name, "knobs": p.describe()} for p in perturbations
        ],
        "cells": out_cells,
        "summary": {
            "n_cells": len(out_cells),
            "n_rows": len(errors),
            "max_abs_error": max(errors) if errors else 0.0,
            "mean_abs_error": sum(errors) / len(errors) if errors else 0.0,
            "all_within_tolerance": all(
                r["within_tolerance"] for c in out_cells for r in c["rows"]
            ),
            "identity_all_exact": all(c["identity_exact"] for c in out_cells),
        },
    }
