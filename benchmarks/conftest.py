"""Shared benchmark configuration.

Benchmarks default to a reduced matrix (fewer workers / folded tasks) so
``pytest benchmarks/`` completes in minutes while exercising the
identical code paths and physics. ``REPRO_FULL=1 pytest benchmarks/``
runs the paper's worker counts (8/16/32 workers, 448 GiB; expect a long
run), still folded (``OHB_FIDELITY``, ``HIBENCH_FIDELITY`` below).
Each EXPERIMENTS.md table names the fidelity it ran at.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

FULL = os.environ.get("REPRO_FULL", "0") == "1"

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=None,
        help=(
            "fan independent experiment cells over N worker processes "
            "(default: REPRO_JOBS env var, else 1 = serial). Rows are "
            "identical for any worker count."
        ),
    )


@pytest.fixture(scope="session")
def jobs(request):
    from repro.harness.parallel import resolve_jobs

    return resolve_jobs(request.config.getoption("--jobs"))

# (worker counts, task-folding fidelity) per mode.
OHB_WORKERS = (8, 16, 32) if FULL else (2, 4, 8)
OHB_FIDELITY = 0.125 if FULL else 0.25
HIBENCH_FIDELITY = 0.25 if FULL else 0.125


def write_bench_json(figure: str, payload: dict) -> pathlib.Path:
    """Write ``results/BENCH_<figure>.json`` (machine-readable bench output).

    One file per figure, rewritten on every run, deterministic key order —
    diffing two files from two PRs shows the perf trajectory directly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{figure}.json"
    payload = {"figure": figure, "full_geometry": FULL, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def ohb_payload(cells) -> dict:
    """OhbCell list -> JSON-able rows (timings + key metric rollups)."""
    from repro.obs import iprobe_calls, loop_busy_fraction, polling_tax_seconds

    rows = []
    for c in cells:
        row = {
            "workload": c.workload,
            "n_workers": c.n_workers,
            "total_cores": c.total_cores,
            "data_bytes": c.data_bytes,
            "transport": c.transport,
            "total_seconds": c.total_seconds,
            "stage_seconds": dict(c.result.stage_seconds),
        }
        snap = c.result.metrics
        if snap is not None:
            # cache.trace.* / cache.run.* counters attribute host-side
            # cache traffic: their values depend on cache temperature
            # (cold vs warm disk), not on (spec, seed). Rows must stay
            # pure functions of the spec, so they are excluded from the
            # metric census, as is the simnet.fluid.rerate.* batch
            # telemetry (deterministic, but kept out so the census only
            # counts simulation-facing metrics).
            row["metrics"] = {
                "n_metrics": len(snap)
                - len(snap.names("cache.trace.*"))
                - len(snap.names("cache.run.*"))
                - len(snap.names("simnet.fluid.rerate.*")),
                "polling_tax_s": polling_tax_seconds(snap),
                "loop_busy_fraction": loop_busy_fraction(snap),
                "iprobe_calls": iprobe_calls(snap),
                "remote_fetch_bytes": snap.total("spark.scheduler.remote_fetch_bytes"),
                "fetch_wait_s": snap.total("spark.scheduler.fetch_wait_s"),
            }
        rows.append(row)
    return {"cells": rows}
