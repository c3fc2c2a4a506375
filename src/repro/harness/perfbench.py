"""Pinned wall-clock perf suite for the simulator kernel.

A small, fixed set of figure-suite cells (Fig 8 ping-pong, Fig 9
basic-vs-opt, one Fig 10 scale point, one Fig 12 HiBench cell) is run
serially and timed for real; each cell reports wall seconds, kernel
events dispatched, and events/sec.  ``run_perf_suite`` returns the full
payload that ``benchmarks/test_perf_suite.py`` writes to
``results/BENCH_perf.json``.

Two comparisons hang off that file:

* ``PRE_PR_BASELINE`` — wall seconds of the same cells on the parent
  tree of the latest kernel pass (min of 3 alternating runs, same
  machine).  The payload records per-cell speedups against it.
* ``regressions(current, committed)`` — events/sec of a fresh run vs
  the committed ``results/BENCH_perf.json``; CI gates on it when
  ``REPRO_PERF_GATE=1`` (>30% drop fails).

Simulated results are unaffected by any of this: the suite only times
runs whose outputs are already covered by the figure benchmarks.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from repro.harness.experiments import FIG8_LARGE_SIZES, FIG8_SMALL_SIZES
from repro.harness.pingpong import run_pingpong
from repro.harness.systems import FRONTERA, INTERNAL_CLUSTER
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB
from repro.workloads.hibench import SPECS
from repro.workloads.ohb import GROUP_BY

SCHEMA = "repro-perf/1"

# Pre-PR wall seconds for the pinned cells: min of 3 runs alternating
# old/new interpreter processes on the same machine (see DESIGN.md §10
# for the methodology).  Used only to report speedups in the payload.
# "Pre-PR" is the parent of the latest kernel pass — since ISSUE 17 the
# object-lifetime pass (decided conditions detach, no per-flow timer
# closure, unobserved events never scheduled), parent 69e1880.  The
# fast-path PR's own table (fig10 8w mpi-basic 13.48 -> 4.1 s, 3.1x) is
# history and lives in DESIGN.md §10.
PRE_PR_BASELINE: dict[str, float] = {
    "fig8_pingpong_nio": 0.0054,
    "fig8_pingpong_mpi": 0.0085,
    "fig9_groupby_2w_nio": 0.1905,
    "fig9_groupby_2w_mpi-basic": 0.3099,
    "fig9_groupby_2w_mpi-opt": 0.2788,
    "fig10_groupby_8w_mpi-basic": 3.029,
    "fig12_terasort_frontera_mpi-opt": 3.543,
}

# Speedups from the paired measurement itself (old and new trees in
# alternating fresh processes, min of 3 per side, per cell).  Unlike the
# live ``speedup_vs_baseline`` division — whose denominator moves with
# whatever else the machine is doing — the paired ratio exposes both
# trees to the same noise, so it is the authoritative before/after
# number.  The win follows the share of a cell's dispatches that nobody
# observed (socket put/get events, stale select wake-ups: the NIO and
# mpi-opt cells) and the garbage its flows and selects left behind; the
# mpi-basic cells poll instead of selecting and gain least.
PRE_PR_PAIRED_SPEEDUP: dict[str, float] = {
    "fig8_pingpong_nio": 1.37,
    "fig8_pingpong_mpi": 1.27,
    "fig9_groupby_2w_nio": 1.15,
    "fig9_groupby_2w_mpi-basic": 1.05,
    "fig9_groupby_2w_mpi-opt": 1.06,
    "fig10_groupby_8w_mpi-basic": 1.18,
    "fig12_terasort_frontera_mpi-opt": 1.46,
}

# Paired measurement for the fluid-rerate / event-loop work (vectorized
# re-rating, persistent park waiters, wire-delay memoization): same
# alternating-process min-of-N methodology as PRE_PR_PAIRED_SPEEDUP,
# taken on the flow-heavy GroupBy cells this pass targets.  The ratios
# grow with worker count because the removed costs — per-arm timer
# closures, per-park waiter list rebuilds, re-computed wire delays —
# all scale with channel and flow count, not with data volume.
PRE_VEC_BASELINE: dict[str, float] = {
    "fig10_groupby_8w_mpi-basic": 3.73,
    "fig10_groupby_32w_mpi-basic": 43.00,
    "scale_groupby_64w_mpi-basic": 38.20,
}

# Wall-clock ratios (old wall / new wall) from the paired runs.
PRE_VEC_PAIRED_SPEEDUP: dict[str, float] = {
    "fig10_groupby_8w_mpi-basic": 1.03,
    "fig10_groupby_32w_mpi-basic": 1.34,
    "scale_groupby_64w_mpi-basic": 1.42,
}

# Events/sec ratios (new eps / old eps) from the same paired runs.  The
# event totals differ across trees (the park-waiter rewrite removed
# no-op dispatch hops), so the wall ratio and the eps ratio are both
# recorded: wall is what a user waits for, eps is kernel throughput.
PRE_VEC_PAIRED_EPS_RATIO: dict[str, float] = {
    "fig10_groupby_8w_mpi-basic": 1.02,
    "fig10_groupby_32w_mpi-basic": 1.24,
    "scale_groupby_64w_mpi-basic": 1.22,
}

# Paired measurement for the collective-shuffle pass.  Unlike PRE_PR /
# PRE_VEC — where old and new are two *trees* timing identical cells —
# both shuffle plans ship in this tree, so the "old" side is the same
# fig9 GroupBy cell drained by per-block ChunkFetch (mpi-opt) and the
# pair is re-measured live on every suite run (coll_baseline block).
# The committed reference ratio below is min-of-3 alternating processes
# on the machine that produced this file.  The host-wall win is an
# event-count collapse — one alltoallv per boundary replaces ~60k
# per-chunk kernel events with ~800 — so events/sec stays flat while
# wall drops ~80x.  Simulated-time wins (the >=30% fetch-wait+queue
# cut) are gated in benchmarks/test_fig9_opt_vs_coll.py, not here.
COLL_PAIRS: list[tuple[str, str]] = [
    ("fig9_groupby_2w_mpi-opt", "fig9_groupby_2w_mpi-coll"),
]
PRE_COLL_PAIRED_WALL_RATIO: dict[str, float] = {
    "fig9_groupby_2w_mpi-coll": 80.7,
}


@dataclass
class PerfCell:
    """One timed cell of the pinned suite."""

    name: str
    wall_seconds: float
    events_processed: int
    events_per_sec: float


def _pingpong_cell(transport: str) -> int:
    sizes = FIG8_SMALL_SIZES + FIG8_LARGE_SIZES
    res = run_pingpong(transport, sizes, INTERNAL_CLUSTER.fabric, iterations=4)
    return res.events_processed


def _ohb_cell(
    n_workers: int,
    data_bytes: int,
    transport: str,
    obs_causal: bool = False,
    fidelity: float = 0.25,
) -> int:
    sim = SparkSimCluster(
        FRONTERA, n_workers, transport, obs_enabled=True, obs_causal=obs_causal
    )
    sim.launch()
    profile = GROUP_BY.build_profile(
        FRONTERA, n_workers, data_bytes, fidelity=fidelity
    )
    sim.run_profile(profile)
    sim.shutdown()
    return sim.env.events_processed


def _hibench_cell(name: str, transport: str) -> int:
    sim = SparkSimCluster(FRONTERA, 16, transport)
    sim.launch()
    profile = SPECS[name].build_profile(FRONTERA, 16, fidelity=0.25)
    sim.run_profile(profile)
    sim.shutdown()
    return sim.env.events_processed


def _trace_cell_fig10(warm: bool) -> int:
    """Fig-10-shaped profile build: sample trace -> scaled profile.

    Cold clears both cache tiers first, so every repeat re-executes the
    sample run; warm hits the in-process memo and must skip sample
    execution entirely. The warm/cold wall ratio is the perf suite's
    trace-cache gate (>= 2x on these trace-generation-dominated cells).
    """
    from repro.harness import tracecache

    if warm:
        GROUP_BY.sample_trace()  # prime both tiers
    else:
        tracecache.clear_memory_cache()
        tracecache.clear_disk_cache()
    before = tracecache.trace_cache_stats()["sample_runs"]
    trace = GROUP_BY.sample_trace()
    GROUP_BY.build_profile(FRONTERA, 8, 8 * 14 * GiB, fidelity=0.25)
    ran = tracecache.trace_cache_stats()["sample_runs"] - before
    # Enabled: cold runs the sample once (build_profile then hits the
    # memo), warm skips execution entirely. Disabled: both calls run.
    if tracecache.cache_enabled():
        assert ran == (0 if warm else 1), f"warm={warm} ran {ran} samples"
    return trace.total_records


def _trace_cell_fig12(warm: bool) -> int:
    """Fig-12 TeraSort sample-trace generation, cold vs warm.

    HiBench profiles are analytic, so the trace-generation cost lives in
    the sample program itself (the correctness-test path); the cell
    times exactly what the cache elides.
    """
    from repro.harness import tracecache

    spec = SPECS["TeraSort"]
    if warm:
        spec.sample_trace()  # prime both tiers
    else:
        tracecache.clear_memory_cache()
        tracecache.clear_disk_cache()
    before = tracecache.trace_cache_stats()["sample_runs"]
    trace = spec.sample_trace()
    spec.build_profile(FRONTERA, 16, fidelity=0.25)
    ran = tracecache.trace_cache_stats()["sample_runs"] - before
    if tracecache.cache_enabled():
        assert ran == (0 if warm else 1), f"warm={warm} ran {ran} samples"
    return trace.total_records


# Private disk store for the run-cache cold/warm pair: the pair must
# control its own cache temperature without clearing (or being served
# by) the user's shared ``results/.runcache`` store.  One directory per
# process, created lazily, removed at exit by the OS tmp reaper.
_PERF_RUNCACHE_DIR: str | None = None


def _perf_runcache_dir() -> str:
    global _PERF_RUNCACHE_DIR
    if _PERF_RUNCACHE_DIR is None:
        _PERF_RUNCACHE_DIR = tempfile.mkdtemp(prefix="repro-perf-runcache-")
    return _PERF_RUNCACHE_DIR


def _runcache_cell(warm: bool) -> int:
    """Full-run result cache, cold vs warm, on a fig9-sized GroupBy cell.

    Cold empties both tiers (memo + the suite's private disk store) so
    the cell re-simulates; warm relies on the cold twin having populated
    the store and must serve the result without running the simulation
    (asserted via the cell-run counter).  Timed against each other they
    are the perf suite's full-run-cache gate (>= 5x warm speedup; in
    practice a warm hit is one unpickle, orders of magnitude faster).
    """
    from repro.harness import runcache
    from repro.harness.parallel import run_ohb_cell

    spec = ("GroupByTest", 4, 4 * 14 * GiB, "mpi-basic", 0.25, "Frontera")
    directory = _perf_runcache_dir()
    old_dir = os.environ.get("REPRO_RUN_CACHE_DIR")
    os.environ["REPRO_RUN_CACHE_DIR"] = directory
    try:
        if warm:
            run_ohb_cell(spec)  # prime: a hit once the cold twin has run
        else:
            runcache.clear_memory_cache()
            shutil.rmtree(directory, ignore_errors=True)
        before = runcache.run_cache_stats()["cell_runs"]
        cell = run_ohb_cell(spec)
        ran = runcache.run_cache_stats()["cell_runs"] - before
        if runcache.cache_enabled():
            assert ran == (0 if warm else 1), f"warm={warm} ran {ran} cells"
    finally:
        if old_dir is None:
            os.environ.pop("REPRO_RUN_CACHE_DIR", None)
        else:
            os.environ["REPRO_RUN_CACHE_DIR"] = old_dir
    # A deterministic digest of the simulated outcome: identical across
    # repeats (and across cache temperatures — the byte-identity tests
    # in tests/harness/test_runcache.py assert the full row equality).
    return int(cell.result.total_seconds * 1e6)


def trace_cache_sweep() -> dict:
    """Multi-transport sweep proving sample execution count = 1 per
    unique (workload, sample-params).

    Builds profiles for 2 OHB workloads x 3 worker counts x 3 transports
    (18 cells; transports don't enter build_profile, mirroring how the
    figure sweeps share one trace per workload) from a fully cold cache
    and reports the observed sample runs against the unique-trace count.
    """
    from repro.harness import tracecache
    from repro.workloads.ohb import SORT_BY

    tracecache.clear_memory_cache()
    tracecache.clear_disk_cache()
    before = tracecache.trace_cache_stats()
    workloads = (GROUP_BY, SORT_BY)
    worker_counts = (2, 4, 8)
    transports = ("nio", "rdma", "mpi-opt")
    cells = 0
    for workload in workloads:
        for n_workers in worker_counts:
            for _transport in transports:
                workload.build_profile(
                    FRONTERA, n_workers, n_workers * 14 * GiB, fidelity=0.25
                )
                cells += 1
    after = tracecache.trace_cache_stats()
    delta = {k: after[k] - before[k] for k in after}
    return {
        "sweep_cells": cells,
        "unique_samples": len(workloads),
        "sample_runs": delta["sample_runs"],
        "stats_delta": delta,
        "enabled": tracecache.cache_enabled(),
    }


@dataclass(frozen=True)
class CellSpec:
    """One pinned cell's runner plus its explicit noise policy.

    ``noise_exempt`` excludes the cell from the events/sec regression
    gate — with the *reason recorded here*, not inferred from a name
    pattern: an exempted cell must name the gate that really covers it.
    ``min_repeats``/``max_repeats`` bound the min-of-N estimator per
    cell (heavy cells cap at 1 to keep the suite's wall time sane; the
    30% regression threshold absorbs 1-repeat noise).
    """

    fn: Callable[[], int]
    noise_exempt: bool = False
    exempt_reason: str = ""
    min_repeats: int = 1
    max_repeats: int | None = None


# The cache-temperature pair's exemption: the warm twin's wall is tens of
# microseconds (its events/sec is scheduler noise) and the cold twin's
# includes cache-clearing disk I/O. Their real gate is the run_cache
# block's warm_speedup ratio, asserted in benchmarks/test_perf_suite.py.
_RUNCACHE_EXEMPT = "gated by run_cache.warm_speedup, not events/sec"

CELL_SPECS: dict[str, CellSpec] = {
    "fig8_pingpong_nio": CellSpec(lambda: _pingpong_cell("nio")),
    "fig8_pingpong_mpi": CellSpec(lambda: _pingpong_cell("mpi-basic")),
    "fig9_groupby_2w_nio": CellSpec(lambda: _ohb_cell(2, 28 * GiB, "nio")),
    "fig9_groupby_2w_mpi-basic": CellSpec(
        lambda: _ohb_cell(2, 28 * GiB, "mpi-basic")
    ),
    # Same cell with causal flight recording on: the pair measures the
    # tracing overhead, and the payload's obs_causal_overhead reports it.
    "fig9_groupby_2w_mpi-basic_causal": CellSpec(
        lambda: _ohb_cell(2, 28 * GiB, "mpi-basic", obs_causal=True)
    ),
    "fig9_groupby_2w_mpi-opt": CellSpec(lambda: _ohb_cell(2, 28 * GiB, "mpi-opt")),
    # The collective-shuffle pair's new side (old side = the mpi-opt cell
    # above); also the kernel-cost pin for the alltoallv exchange path.
    "fig9_groupby_2w_mpi-coll": CellSpec(lambda: _ohb_cell(2, 28 * GiB, "mpi-coll")),
    "fig10_groupby_8w_mpi-basic": CellSpec(
        lambda: _ohb_cell(8, 8 * 14 * GiB, "mpi-basic")
    ),
    # Scale proof for the vectorized fluid re-rating: the same GroupBy
    # shape at 32 workers (full fig-10 data scaling) and a 64-worker
    # smoke cell (reduced data + fidelity — at this scale the event count
    # is poll/channel-dominated, so the cell still exercises ~1.8M kernel
    # events).  Both cap at one repeat to keep the suite's wall time
    # sane; the 30% regression gate absorbs 1-repeat noise.
    "fig10_groupby_32w_mpi-basic": CellSpec(
        lambda: _ohb_cell(32, 32 * 14 * GiB, "mpi-basic"), max_repeats=1
    ),
    "scale_groupby_64w_mpi-basic": CellSpec(
        lambda: _ohb_cell(64, 64 * 2 * GiB, "mpi-basic", fidelity=0.1),
        max_repeats=1,
    ),
    "fig12_terasort_frontera_mpi-opt": CellSpec(
        lambda: _hibench_cell("TeraSort", "mpi-opt")
    ),
    # The collective plan at fig-10 scale: 8 workers keep the cell's
    # event count high enough for a stable events/sec pin.
    "fig10_groupby_8w_mpi-coll": CellSpec(
        lambda: _ohb_cell(8, 8 * 14 * GiB, "mpi-coll")
    ),
    # Trace-cache cold/warm pairs: same fig-10 / fig-12 cells' profile
    # construction, differing only in cache temperature. Warm must skip
    # sample execution (asserted inside) and be >= 2x faster than cold.
    "fig10_trace_groupby_8w_cold": CellSpec(lambda: _trace_cell_fig10(warm=False)),
    "fig10_trace_groupby_8w_warm": CellSpec(lambda: _trace_cell_fig10(warm=True)),
    "fig12_trace_terasort_cold": CellSpec(lambda: _trace_cell_fig12(warm=False)),
    "fig12_trace_terasort_warm": CellSpec(lambda: _trace_cell_fig12(warm=True)),
    # Full-run result cache cold/warm pair: cold simulates the cell,
    # warm must serve it from the store without simulating (>= 5x gate).
    "runcache_groupby_4w_cold": CellSpec(
        lambda: _runcache_cell(warm=False),
        noise_exempt=True, exempt_reason=_RUNCACHE_EXEMPT,
    ),
    "runcache_groupby_4w_warm": CellSpec(
        lambda: _runcache_cell(warm=True),
        noise_exempt=True, exempt_reason=_RUNCACHE_EXEMPT,
    ),
}

# Back-compat views of the spec table (pre-CellSpec import surface).
PINNED_CELLS: dict[str, Callable[[], int]] = {
    name: spec.fn for name, spec in CELL_SPECS.items()
}
CELL_REPEATS: dict[str, int] = {
    name: spec.max_repeats
    for name, spec in CELL_SPECS.items()
    if spec.max_repeats is not None
}


def noise_exempt_cells() -> list[str]:
    """Cells excluded from the events/sec gate, in pinned order."""
    return [name for name, spec in CELL_SPECS.items() if spec.noise_exempt]


# (cold, warm) pinned-cell pairs gated at warm >= 2x cold.
TRACE_CACHE_PAIRS: list[tuple[str, str]] = [
    ("fig10_trace_groupby_8w_cold", "fig10_trace_groupby_8w_warm"),
    ("fig12_trace_terasort_cold", "fig12_trace_terasort_warm"),
]

# (cold, warm) full-run cache pair gated at warm >= 5x cold.
RUN_CACHE_PAIRS: list[tuple[str, str]] = [
    ("runcache_groupby_4w_cold", "runcache_groupby_4w_warm"),
]


def run_cell(name: str, repeats: int = 3) -> PerfCell:
    """Time one pinned cell, keeping the fastest of ``repeats`` runs.

    Min-of-N is the same estimator the committed baseline used; anything
    else conflates kernel speed with scheduler noise on busy machines.
    The event count is identical across repeats (the cells are
    deterministic), which run 2+ assert as a free sanity check.
    """
    spec = CELL_SPECS[name]
    fn = spec.fn
    repeats = max(spec.min_repeats, min(repeats, spec.max_repeats or repeats))
    wall = float("inf")
    events = None
    for _ in range(max(1, repeats)):
        gc.collect()  # keep earlier cells' garbage out of this timing
        t0 = time.perf_counter()
        n = fn()
        wall = min(wall, time.perf_counter() - t0)
        assert events is None or events == n, f"{name}: nondeterministic events"
        events = n
    return PerfCell(
        name=name,
        wall_seconds=wall,
        events_processed=events,
        events_per_sec=events / wall if wall > 0 else 0.0,
    )


def run_perf_suite(
    cells: list[str] | None = None, repeats: int | None = None
) -> dict:
    """Run the pinned cells serially; return the BENCH_perf payload."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_PERF_REPEATS", "3") or "3")
    names = list(PINNED_CELLS) if cells is None else cells
    rows = [run_cell(name, repeats) for name in names]
    speedups = {
        r.name: PRE_PR_BASELINE[r.name] / r.wall_seconds
        for r in rows
        if PRE_PR_BASELINE.get(r.name) and r.wall_seconds > 0
    }
    # Causal-tracing overhead: wall ratio of the paired obs-on/obs-off
    # cell (>1 means tracing costs wall time; the figure rows themselves
    # are unaffected — tracing schedules nothing).
    by_name = {r.name: r for r in rows}
    obs_overhead = None
    off = by_name.get("fig9_groupby_2w_mpi-basic")
    on = by_name.get("fig9_groupby_2w_mpi-basic_causal")
    if off is not None and on is not None and off.wall_seconds > 0:
        obs_overhead = {
            "pair": [off.name, on.name],
            "wall_ratio": on.wall_seconds / off.wall_seconds,
            "events_identical": on.events_processed == off.events_processed,
        }
    # Trace-cache block: the cold/warm pinned pairs' wall ratios plus the
    # multi-transport sweep proving one sample execution per unique
    # (workload, sample-params).
    pair_speedups = {}
    for cold_name, warm_name in TRACE_CACHE_PAIRS:
        cold, warm = by_name.get(cold_name), by_name.get(warm_name)
        if cold is not None and warm is not None and warm.wall_seconds > 0:
            pair_speedups[cold_name] = cold.wall_seconds / warm.wall_seconds
    trace_cache_block = {
        "pairs": [list(p) for p in TRACE_CACHE_PAIRS],
        "warm_speedup": pair_speedups,
        "sweep": trace_cache_sweep(),
    }
    # Full-run cache block: warm/cold wall ratio of the runcache pair
    # plus the process-lifetime cache counters.
    from repro.harness.runcache import cache_enabled, run_cache_stats

    run_pair_speedups = {}
    for cold_name, warm_name in RUN_CACHE_PAIRS:
        cold, warm = by_name.get(cold_name), by_name.get(warm_name)
        if cold is not None and warm is not None and warm.wall_seconds > 0:
            run_pair_speedups[cold_name] = cold.wall_seconds / warm.wall_seconds
    run_cache_block = {
        "pairs": [list(p) for p in RUN_CACHE_PAIRS],
        "warm_speedup": run_pair_speedups,
        "enabled": cache_enabled(),
        "stats": run_cache_stats(),
    }
    vec_speedups = {
        r.name: PRE_VEC_BASELINE[r.name] / r.wall_seconds
        for r in rows
        if PRE_VEC_BASELINE.get(r.name) and r.wall_seconds > 0
    }
    # Collective-shuffle pair: both plans run in this tree, so the
    # old/new wall ratio is re-measured live each suite run and reported
    # next to the committed alternating-process reference.
    coll_wall_ratio = {}
    for old_name, new_name in COLL_PAIRS:
        old, new = by_name.get(old_name), by_name.get(new_name)
        if old is not None and new is not None and new.wall_seconds > 0:
            coll_wall_ratio[new_name] = old.wall_seconds / new.wall_seconds
    return {
        "schema": SCHEMA,
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "cells": [asdict(r) for r in rows],
        "trace_cache": trace_cache_block,
        "run_cache": run_cache_block,
        "obs_causal_overhead": obs_overhead,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "baseline": {
            "description": (
                "parent tree of the latest kernel pass (ISSUE 17, object "
                "lifetime; parent 69e1880), min of 3 runs alternating "
                "old/new processes on the machine that produced this file; "
                "paired_speedup is the ratio from that alternating "
                "measurement (noise-immune), speedup_vs_baseline divides "
                "this run's walls by the frozen pre-PR walls; event totals "
                "differ across the two trees (unobserved events are no "
                "longer scheduled), so events/sec is comparable only within "
                "one tree"
            ),
            "wall_seconds": dict(PRE_PR_BASELINE),
            "speedup_vs_baseline": speedups,
            "paired_speedup": dict(PRE_PR_PAIRED_SPEEDUP),
            "best_speedup": max(
                (*speedups.values(), *PRE_PR_PAIRED_SPEEDUP.values()),
                default=None,
            ),
        },
        "coll_baseline": {
            "description": (
                "per-block ChunkFetch (mpi-opt) vs one alltoallv per "
                "stage boundary (mpi-coll) on the same fig9 GroupBy "
                "cell; wall_ratio is old/new host wall measured live "
                "this run, paired_wall_ratio the committed min-of-3 "
                "alternating-process reference; simulated-time wins are "
                "gated in benchmarks/test_fig9_opt_vs_coll.py"
            ),
            "pairs": [list(p) for p in COLL_PAIRS],
            "wall_ratio": coll_wall_ratio,
            "paired_wall_ratio": dict(PRE_COLL_PAIRED_WALL_RATIO),
        },
        "fluid_baseline": {
            "description": (
                "pre-vectorization tree (before the fluid re-rate / park-"
                "waiter / wire-memo pass), min of 3 alternating runs per "
                "side on the machine that produced this file; "
                "paired_speedup is old/new wall, paired_eps_ratio is "
                "new/old events-per-sec (event totals differ across trees)"
            ),
            "wall_seconds": dict(PRE_VEC_BASELINE),
            "speedup_vs_baseline": vec_speedups,
            "paired_speedup": dict(PRE_VEC_PAIRED_SPEEDUP),
            "paired_eps_ratio": dict(PRE_VEC_PAIRED_EPS_RATIO),
        },
    }


def regressions(
    current: dict, committed: dict, threshold: float = 0.30
) -> list[str]:
    """Cells whose events/sec dropped more than ``threshold`` vs a
    committed payload.  Missing cells are skipped (renames don't fail CI).

    Only meaningful when ``committed`` came from the same tree's kernel:
    event totals move when a change stops scheduling unobservable events.
    """
    committed_eps = {
        c["name"]: c["events_per_sec"] for c in committed.get("cells", [])
    }
    out = []
    for cell in current.get("cells", []):
        spec = CELL_SPECS.get(cell["name"])
        if spec is not None and spec.noise_exempt:
            # Exempted in the pinned-cell spec, each with the gate that
            # really covers it named in spec.exempt_reason.
            continue
        base = committed_eps.get(cell["name"])
        if not base:
            continue
        drop = 1.0 - cell["events_per_sec"] / base
        if drop > threshold:
            out.append(
                f"{cell['name']}: events/sec {cell['events_per_sec']:.0f} "
                f"vs committed {base:.0f} ({drop:.0%} drop)"
            )
    return out


# -- blame reports: diff a failing cell against a committed baseline ---------
#
# When the regression gate (or a golden-row identity check) fails, CI
# should explain *why*, not just that. For each transport a small causal
# proxy cell — the obs_report.py GroupBy shape, cheap enough to re-record
# inside a failing CI job — has a committed baseline recording under
# baselines/; blame_report() re-records it on the current tree, diffs the
# two flight logs with repro.obs.diff and writes the HTML blame page.
#
# Caveat, stated where it matters: a *host-side* slowdown (slower
# machine, interpreter regression) does not move simulated time, so its
# diff is the zero identity — the report then says exactly that, which is
# itself the answer ("no simulated drift; the regression is host-side").
# A behavior change (code edit, knob, injected slowdown) shows up as
# named segment deltas.

# Where the committed baseline recordings live. Deliberately *not* under
# results/ — results/ holds regenerated outputs, baselines/ holds
# committed references (see the canonical-results policy in .gitignore).
BLAME_BASELINE_DIR = Path("baselines")

# The blame proxy cell per transport: the examples/obs_report.py GroupBy
# shape (2 workers, 4 GiB, fidelity 0.1) as a parallel-harness spec with
# causal recording on. Simulated time is seeded and deterministic, so the
# recording is byte-identical across machines — what makes a *committed*
# baseline meaningful.
BLAME_TRANSPORTS = ("nio", "mpi-basic", "mpi-opt")


def blame_spec(transport: str) -> tuple:
    """Primitive 7-tuple spec of the blame proxy cell for ``transport``."""
    return ("GroupByTest", 2, 4 * GiB, transport, 0.1, "Frontera", True)


def baseline_path(transport: str, directory: Path | None = None) -> Path:
    """Committed baseline recording path for one transport's proxy cell."""
    directory = BLAME_BASELINE_DIR if directory is None else Path(directory)
    return directory / f"blame_groupby_2w_{transport}.jsonl.gz"


def parse_blame_inject(value: str | None = None) -> tuple[str, float] | None:
    """Parse ``REPRO_BLAME_INJECT`` = ``segment[:factor]`` (default 2.0).

    The CI-verifiable fault injection: slow one modeled cost down by
    ``factor`` so the blame report must name that segment. Supported
    segments are ``serialize`` (ramdisk shuffle-write bandwidth) and
    ``poll-tax`` (Basic's poll period and per-poll costs).
    """
    if value is None:
        value = os.environ.get("REPRO_BLAME_INJECT", "")
    if not value:
        return None
    segment, _, factor = value.partition(":")
    segment = segment.strip()
    if segment not in ("serialize", "poll-tax"):
        raise ValueError(
            f"REPRO_BLAME_INJECT={value!r}: segment must be 'serialize' "
            "or 'poll-tax'"
        )
    return segment, float(factor) if factor else 2.0


def record_cell_flight(transport: str, inject: tuple[str, float] | None = None):
    """Record the proxy cell's flight log on the live tree.

    ``inject`` applies the slowdown knob while simulating (constants are
    restored in ``finally``); the patched constants enter the run-cache
    key via ``runcache.live_constants``, so injected and clean runs can
    never serve each other's cached results. Returns the RunResult.
    """
    import repro.spark.deploy as deploy
    from repro.harness.parallel import run_ohb_cell
    from repro.transports.mpi_basic import MpiBasicTransport

    saved = (deploy.RAMDISK_WRITE_BPS, MpiBasicTransport.compute_inflation)
    try:
        if inject is not None:
            segment, factor = inject
            if segment == "serialize":
                deploy.RAMDISK_WRITE_BPS = saved[0] / factor
            else:
                # poll-tax: scale Basic's busy-poll interference tax
                # (the compute-inflation excess over 1.0). The diff
                # engine re-splits inflated compute into pure compute +
                # poll-tax from each side's recorded inflation, so this
                # lands squarely in the poll-tax bucket.
                MpiBasicTransport.compute_inflation = 1.0 + (saved[1] - 1.0) * factor
        cell = run_ohb_cell(blame_spec(transport))
    finally:
        deploy.RAMDISK_WRITE_BPS, MpiBasicTransport.compute_inflation = saved
    return cell.result


def record_blame_baselines(
    directory: Path | None = None, jobs: int | None = None
) -> list[Path]:
    """(Re)record the committed baseline recordings, one per transport.

    Run via ``examples/run_diff.py --record-baselines`` after a change
    that intentionally moves simulated time; the diff-smoke CI job fails
    if a stale baseline no longer self-diffs to zero.
    """
    from repro.harness.parallel import run_flight_cells

    directory = BLAME_BASELINE_DIR if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    flights = run_flight_cells(
        [blame_spec(t) for t in BLAME_TRANSPORTS], jobs=jobs
    )
    paths = []
    for transport, flight in zip(BLAME_TRANSPORTS, flights):
        paths.append(Path(flight.write(str(baseline_path(transport, directory)))))
    return paths


def blame_report(
    transport: str,
    out_dir: Path | str = "results",
    baseline_dir: Path | None = None,
    inject: tuple[str, float] | None = None,
):
    """Diff the live tree's proxy cell against its committed baseline.

    Returns ``(DiffReport, html_path)``; the page is the CI artifact a
    failing perf gate uploads. ``inject`` defaults to the
    ``REPRO_BLAME_INJECT`` environment knob.
    """
    from repro.obs.diff import diff_runs
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.report_html import write_diff_report

    if inject is None:
        inject = parse_blame_inject()
    path = baseline_path(transport, baseline_dir)
    baseline = FlightRecorder.load_jsonl(str(path))
    current = record_cell_flight(transport, inject=inject)
    diff = diff_runs(
        baseline,
        current,
        a_label="baseline",
        b_label="current",
        transport_a=transport,
    )
    diff.check()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    html = write_diff_report(
        str(out_dir / f"blame_groupby_2w_{transport}.html"),
        diff,
        baseline,
        current.flight,
        title=f"blame report: GroupByTest proxy cell [{transport}]",
    )
    return diff, html


def blame_failing_cells(
    failures: list[str], out_dir: Path | str = "results"
) -> list[str]:
    """Emit blame reports for the transports behind failing perf cells.

    ``failures`` are :func:`regressions` strings; each is mapped to its
    transport's proxy cell (cell names end ``_<transport>`` modulo
    suffixes). Baseline-less transports are skipped — this is CI-side
    best-effort explanation, never a new failure mode.
    """
    transports = []
    for failure in failures:
        name = failure.split(":", 1)[0]
        for transport in BLAME_TRANSPORTS:
            if transport in name and transport not in transports:
                transports.append(transport)
    reports = []
    for transport in transports:
        if not baseline_path(transport).exists():
            continue
        try:
            _diff, html = blame_report(transport, out_dir=out_dir)
        except Exception as exc:  # noqa: BLE001 - explanation must not mask the gate
            reports.append(f"{transport}: blame report failed ({exc})")
        else:
            reports.append(html)
    return reports
