#!/usr/bin/env python
"""Causal tracing quickstart: explain a run, build the HTML report.

Runs one small GroupByTest cell on 2 simulated Frontera workers under
MPI4Spark-Basic and MPI4Spark-Optimized with causal message tracing
(``spark.repro.obs.causal``), then:

* prints each run's critical-path breakdown (compute / serialize /
  queue / wire / poll-tax / fetch-wait),
* writes ``results/obs_report_groupby.html`` — the Spark-UI-style page
  with the stage Gantt, the message timeline and the same tables,
* exits non-zero if the Basic run's critical path shows no poll-tax
  segment (the CI obs-smoke gate: the busy-poll cost must be visible),
  or if rendering the same seeded cells again — from the same recordings
  and from fresh ones — gives a different page.

Run:  python examples/obs_report.py
"""

import pathlib
import sys

from repro.harness.systems import FRONTERA
from repro.obs import critical_path, render_report, write_report
from repro.spark.conf import SparkConf
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB, fmt_time
from repro.workloads.ohb import GROUP_BY

OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "results"
    / "obs_report_groupby.html"
)


def run_one(transport: str, n_workers: int = 2, data: int = 4 * GiB):
    conf = SparkConf(
        {
            "spark.repro.transport": transport,
            "spark.repro.obs.causal": "true",
        }
    )
    sim = SparkSimCluster.from_conf(FRONTERA, n_workers, conf)
    sim.launch()
    profile = GROUP_BY.build_profile(FRONTERA, n_workers, data, fidelity=0.1)
    result = sim.run_profile(profile)
    sim.shutdown()
    return result


def main() -> int:
    runs = []
    for transport in ("mpi-basic", "mpi-opt"):
        result = run_one(transport)
        cp = critical_path(result)
        runs.append((result, cp))
        print(
            f"GroupByTest 4 GiB / 2 workers / {transport}: "
            f"{fmt_time(result.total_seconds)} total, "
            f"{len(result.flight.events)} flight events"
        )
        print(cp.render())
        print()

    OUT.parent.mkdir(exist_ok=True)
    title = "GroupByTest 4 GiB — causal run report"
    write_report(OUT, runs, title=title)
    print(f"HTML report: {OUT}")

    # Every section reads its recording through one shared FlightIndex.
    # A second render (index reused) and a render of fresh recordings of
    # the same seeded cells (index rebuilt) must reproduce the page.
    fresh = [run_one(result.transport) for result, _ in runs]
    pages = {
        "written": OUT.read_text(),
        "re-rendered": render_report(runs, title=title),
        "fresh recordings": render_report(
            [(result, critical_path(result)) for result in fresh], title=title
        ),
    }
    if len(set(pages.values())) != 1:
        print(f"FAIL: renders of the same seeded cells differ: "
              f"{ {k: len(v) for k, v in pages.items()} }", file=sys.stderr)
        return 1

    # The smoke gate: Basic busy-polls, so its critical path must carry a
    # poll-tax segment; if it doesn't, the causal wiring is broken.
    basic_cp = runs[0][1]
    if basic_cp.segment_seconds("poll-tax") <= 0:
        print("FAIL: mpi-basic critical path has no poll-tax segment",
              file=sys.stderr)
        return 1
    print(
        f"poll-tax share under mpi-basic: {basic_cp.share('poll-tax'):.1%} "
        f"(opt: {runs[1][1].share('poll-tax'):.1%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
