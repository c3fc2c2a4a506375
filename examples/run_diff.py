#!/usr/bin/env python
"""Differential run analysis quickstart — and the CI ``diff-smoke`` gate.

Records the blame proxy cell (GroupByTest, 4 GiB, 2 simulated Frontera
workers) under MPI4Spark-Basic and MPI4Spark-Optimized with causal
flight recording, then:

* diffs the two recordings with ``repro.obs.diff`` and prints the
  attribution table (compute / serialize / queue / wire / poll-tax /
  fetch-wait / sched-wait + residual, provably summing to the measured
  wall delta),
* writes ``results/diff_basic_vs_opt.html`` — the side-by-side stage
  Gantt plus the per-segment delta waterfall,
* checks each transport's fresh recording against its committed
  baseline under ``baselines/`` (must be the zero-identity diff),
* forces a regression (``blame_report(..., inject=(segment, factor))``)
  and checks the blame report names the injected segment.

Exit is non-zero unless (a) the basic-vs-opt diff blames poll-tax for
at least half the wall delta, (b) every baseline self-diff is the zero
identity, and (c) the injected regression is blamed on the injected
segment.

Run:   python examples/run_diff.py
       python examples/run_diff.py --record-baselines   # refresh baselines/
"""

import pathlib
import sys

from repro.harness.blame import (
    BLAME_TRANSPORTS,
    baseline_path,
    blame_report,
    record_blame_baselines,
    record_cell_flight,
)
from repro.obs import diff_runs, write_diff_report
from repro.util.units import fmt_time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "results" / "diff_basic_vs_opt.html"

# The diff must attribute at least this share of the basic-vs-opt wall
# delta to poll-tax (measured share is ~1.0; see EXPERIMENTS.md).
MIN_POLL_TAX_SHARE = 0.5


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    return ok


def main() -> int:
    if "--record-baselines" in sys.argv:
        for path in record_blame_baselines():
            print(f"recorded {path}")
        return 0

    ok = True

    # -- A/B diff: mpi-basic vs mpi-opt --------------------------------------
    basic = record_cell_flight("mpi-basic")
    opt = record_cell_flight("mpi-opt")
    diff = diff_runs(opt, basic, a_label="mpi-opt", b_label="mpi-basic")
    diff.check()  # attribution sum identity (raises on a leak)
    print(diff.render())
    write_diff_report(str(OUT), diff, opt.flight, basic.flight,
                      title="GroupByTest 4 GiB / 2w: mpi-opt vs mpi-basic")
    print(f"wrote {OUT}")

    wall = diff.wall_delta_s
    poll_tax = diff.segment_delta("poll-tax")
    share = poll_tax / wall if wall else 0.0
    print(f"\nbasic is slower by {fmt_time(wall)}; "
          f"poll-tax contributes {fmt_time(poll_tax)} (share {share:.2f})")
    print("checks:")
    ok &= check("basic slower than opt", wall > 0, f"delta {fmt_time(wall)}")
    ok &= check(
        f"poll-tax share >= {MIN_POLL_TAX_SHARE}",
        share >= MIN_POLL_TAX_SHARE,
        f"{share:.2f}",
    )

    # -- baseline identity: fresh tree vs committed recordings ---------------
    for transport in BLAME_TRANSPORTS:
        if not baseline_path(transport).exists():
            ok &= check(f"baseline {transport}", False, "missing recording")
            continue
        bdiff, html = blame_report(transport)
        ok &= check(
            f"baseline identity {transport}",
            bdiff.is_identity(),
            f"wall delta {bdiff.wall_delta_s!r} -> {html}",
        )

    # -- forced regression: the blame report must name the injected segment --
    for segment, factor in (("serialize", 4.0), ("poll-tax", 2.0)):
        transport = "mpi-opt" if segment == "serialize" else "mpi-basic"
        idiff, html = blame_report(transport, inject=(segment, factor))
        ok &= check(
            f"injected {segment} x{factor:g} blamed",
            idiff.top_contributor() == segment and idiff.wall_delta_s > 0,
            f"top {idiff.top_contributor()}, "
            f"delta {fmt_time(idiff.wall_delta_s)} -> {html}",
        )

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
