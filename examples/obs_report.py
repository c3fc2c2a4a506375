#!/usr/bin/env python
"""Causal tracing quickstart: explain a run, build the HTML report.

Runs one small GroupByTest cell on 2 simulated Frontera workers under
MPI4Spark-Basic and MPI4Spark-Optimized with causal message tracing
(``obs_causal=True``), then:

* prints each run's critical-path breakdown (compute / serialize /
  queue / wire / poll-tax / fetch-wait),
* writes ``results/obs_report_groupby.html`` — the Spark-UI-style page
  with the stage Gantt, the message timeline and the same tables,
* prints the poll-tax share of each critical path.

``tests/obs/test_flight_index.py`` checks that Basic's critical path
carries a poll-tax segment and that re-rendering the same seeded cells
reproduces the page.

Run:  python examples/obs_report.py
"""

import pathlib

from repro.harness.systems import FRONTERA
from repro.obs import critical_path, write_report
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB, fmt_time
from repro.workloads.ohb import GROUP_BY

OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "results"
    / "obs_report_groupby.html"
)


def run_one(transport: str, n_workers: int = 2, data: int = 4 * GiB):
    sim = SparkSimCluster(FRONTERA, n_workers, transport, obs_causal=True)
    sim.launch()
    profile = GROUP_BY.build_profile(FRONTERA, n_workers, data, fidelity=0.1)
    result = sim.run_profile(profile)
    sim.shutdown()
    return result


def main() -> None:
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
    write_report(OUT, runs, title="GroupByTest 4 GiB — causal run report")
    print(f"HTML report: {OUT}")
    print(
        f"poll-tax share under mpi-basic: {runs[0][1].share('poll-tax'):.1%} "
        f"(opt: {runs[1][1].share('poll-tax'):.1%})"
    )


if __name__ == "__main__":
    main()
