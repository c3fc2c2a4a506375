"""Pinned wall-clock perf suite -> ``results/BENCH_perf.json``.

Unlike the figure benchmarks (which assert on *simulated* seconds), this
suite times real wall seconds and kernel events/sec for a pinned subset
of cells. Run it directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_suite.py -q

With ``REPRO_PERF_GATE=1`` the suite additionally fails if any cell's
events/sec dropped >30% against the committed ``results/BENCH_perf.json``
(the committed file is read at import time, before this run overwrites it).

Event totals are comparable only within one tree. A kernel change that
stops scheduling events nobody can observe lowers a cell's
``events_processed`` — and with it events/sec — while its wall improves
(ISSUE 17: 4-28 % fewer dispatches per pinned cell), so the gate means
something only against a committed file that the gated tree itself
produced: a PR that moves dispatch counts regenerates the file.
"""

import json
import os

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.harness import ledger
from repro.harness.perfbench import (
    COLL_PAIRS,
    PINNED_CELLS,
    blame_failing_cells,
    PRE_PR_BASELINE,
    PRE_VEC_BASELINE,
    RUN_CACHE_PAIRS,
    TRACE_CACHE_PAIRS,
    regressions,
    run_perf_suite,
)

_BENCH_PATH = RESULTS_DIR / "BENCH_perf.json"
# Snapshot the committed payload before any test overwrites it.
_COMMITTED = (
    json.loads(_BENCH_PATH.read_text()) if _BENCH_PATH.exists() else None
)


@pytest.fixture(scope="module")
def payload():
    return run_perf_suite()


def test_perf_suite_writes_bench_json(payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    _BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert _BENCH_PATH.exists()
    # Ledger the run (append-only history; REPRO_LEDGER=0 disables).
    # Observation only: the BENCH file above is never modified.
    ledger.record_perf(payload)


def test_all_pinned_cells_ran(payload):
    assert [c["name"] for c in payload["cells"]] == list(PINNED_CELLS)
    for cell in payload["cells"]:
        assert cell["events_processed"] > 0
        assert cell["events_per_sec"] > 0
        assert cell["wall_seconds"] > 0
    assert payload["peak_rss_kib"] > 0


def test_speedup_vs_pre_pr_baseline_recorded(payload):
    # Kernel speed is the point of this file: the payload must carry
    # per-cell speedups against the walls of the latest kernel pass's
    # parent tree (live division) plus the paired alternating-process
    # ratios. The block is refreshed, not multiplied, by each kernel
    # pass: since ISSUE 17 it holds the object-lifetime pass, whose
    # largest pinned win is the select-heavy TeraSort cell (the fast-path
    # PR's >=3x on the fig10 8w cell is in DESIGN.md §10).
    speedups = payload["baseline"]["speedup_vs_baseline"]
    # Cells added after the first kernel PR (e.g. the causal-tracing
    # pair's obs-on twin) are not part of the paired measurement.
    baselined = {c["name"] for c in payload["cells"]} & set(PRE_PR_BASELINE)
    assert set(speedups) == baselined
    paired = payload["baseline"]["paired_speedup"]
    assert paired["fig12_terasort_frontera_mpi-opt"] >= 1.3
    assert min(paired.values()) >= 1.0
    assert payload["baseline"]["best_speedup"] >= 1.3


def test_fluid_rerate_scale_cells_and_baseline(payload):
    # The vectorized-fluid / park-waiter pass: its paired measurement is
    # recorded per flow-heavy cell, and the live run must carry the 32-
    # and 64-worker scale cells it makes tractable (the 64w smoke cell
    # alone dispatches ~1.8M kernel events).
    fluid = payload["fluid_baseline"]
    baselined = {c["name"] for c in payload["cells"]} & set(PRE_VEC_BASELINE)
    assert set(fluid["speedup_vs_baseline"]) == baselined
    # Paired ratios from the alternating measurement: the win must grow
    # with scale — that is the point of batching the re-rate work.
    paired = fluid["paired_speedup"]
    assert paired["fig10_groupby_32w_mpi-basic"] >= 1.2
    assert paired["scale_groupby_64w_mpi-basic"] >= 1.3
    by_name = {c["name"]: c for c in payload["cells"]}
    assert by_name["fig10_groupby_32w_mpi-basic"]["events_processed"] > 2_000_000
    assert by_name["scale_groupby_64w_mpi-basic"]["events_processed"] > 1_500_000


def test_collective_pair_event_collapse(payload):
    # The collective-shuffle pass as a kernel-cost claim: draining the
    # fig9 exchange through one alltoallv per boundary instead of
    # per-chunk request/response collapses the cell's event count, so
    # the old/new host-wall ratio is large while events/sec stays flat
    # (the kernel itself got neither faster nor slower).
    block = payload["coll_baseline"]
    assert block["pairs"] == [list(p) for p in COLL_PAIRS]
    by_name = {c["name"]: c for c in payload["cells"]}
    for old_name, new_name in COLL_PAIRS:
        assert block["wall_ratio"][new_name] >= 10.0, (
            f"{new_name}: only {block['wall_ratio'][new_name]:.1f}x "
            "fewer host-wall seconds than its per-block twin"
        )
        assert (
            by_name[new_name]["events_processed"]
            < by_name[old_name]["events_processed"] / 10
        )


def test_run_cache_warm_speedup_and_no_resimulation(payload):
    # The full-run result cache's perf gate: the warm twin of the pinned
    # GroupBy cell must be served from the store without simulating
    # (asserted inside the cell via the cell-run counter) and be >= 5x
    # faster than its cold twin.  Byte-identity of cached vs simulated
    # rows is covered by tests/harness/test_runcache.py.
    block = payload["run_cache"]
    if not block["enabled"]:
        pytest.skip("run cache disabled (REPRO_RUN_CACHE=0)")
    assert block["pairs"] == [list(p) for p in RUN_CACHE_PAIRS]
    for cold_name, _warm_name in RUN_CACHE_PAIRS:
        assert block["warm_speedup"][cold_name] >= 5.0, (
            f"{cold_name}: warm run cache only "
            f"{block['warm_speedup'][cold_name]:.2f}x faster than cold"
        )
    assert block["stats"]["errors"] == 0


def test_trace_cache_warm_speedup_and_single_execution(payload):
    # The trace-cache tentpole's two gates: (1) warm-cache cells skip
    # sample execution (asserted inside the cells) and are >= 2x faster
    # than their cold twins; (2) a full multi-transport sweep executes
    # each unique (workload, sample-params) sample exactly once.
    block = payload["trace_cache"]
    if not block["sweep"]["enabled"]:
        pytest.skip("trace cache disabled (REPRO_TRACE_CACHE=0)")
    assert block["pairs"] == [list(p) for p in TRACE_CACHE_PAIRS]
    for cold_name, _warm_name in TRACE_CACHE_PAIRS:
        assert block["warm_speedup"][cold_name] >= 2.0, (
            f"{cold_name}: warm cache only "
            f"{block['warm_speedup'][cold_name]:.2f}x faster than cold"
        )
    sweep = block["sweep"]
    assert sweep["sweep_cells"] == 18
    assert sweep["sample_runs"] == sweep["unique_samples"] == 2
    # The sweep's remaining 16 cells were cache hits, not re-executions.
    delta = sweep["stats_delta"]
    assert delta["hits_mem"] == sweep["sweep_cells"] - sweep["unique_samples"]
    assert delta["errors"] == 0


def test_causal_tracing_overhead_bounded(payload):
    # The obs-off/obs-on pair of the same fig9 cell: flight recording may
    # cost bounded wall time but must not change the simulation itself.
    overhead = payload["obs_causal_overhead"]
    assert overhead["pair"] == [
        "fig9_groupby_2w_mpi-basic",
        "fig9_groupby_2w_mpi-basic_causal",
    ]
    assert overhead["events_identical"] is True
    assert overhead["wall_ratio"] < 1.5


def test_no_events_per_sec_regression_vs_committed(payload):
    if os.environ.get("REPRO_PERF_GATE") != "1":
        pytest.skip("perf gate disabled; set REPRO_PERF_GATE=1 to enable")
    if _COMMITTED is None:
        pytest.skip("no committed results/BENCH_perf.json to compare against")
    failures = regressions(payload, _COMMITTED, threshold=0.30)
    if failures:
        # Explain before failing: re-record each offending transport's
        # blame proxy cell, diff it against the committed baseline
        # recording, and leave the HTML blame reports in results/ for CI
        # to upload. A host-side slowdown diffs to the zero identity —
        # which the report states, and is itself the diagnosis.
        reports = blame_failing_cells(failures, out_dir=RESULTS_DIR)
        pytest.fail(
            "events/sec regressions: " + "; ".join(failures)
            + (" | blame reports: " + ", ".join(map(str, reports)) if reports else "")
        )
