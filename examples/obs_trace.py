#!/usr/bin/env python
"""Observability quickstart: record a GroupByTest run, export Chrome JSON.

Runs one 4 GiB GroupByTest cell on 2 simulated Frontera workers with
MPI4Spark-Optimized and causal recording on (``obs_causal=True``, which
implies metrics), then:

* prints the Spark-UI-style text timeline of the recording's stages and
  tasks,
* prints key metric rollups (polling tax, loop busy %, fetch wait),
* writes ``results/groupby_trace.json`` — open it in ``chrome://tracing``
  or https://ui.perfetto.dev to browse the run stage by stage and task by
  task.

Run:  python examples/obs_trace.py
"""

import pathlib

from repro.harness.systems import FRONTERA
from repro.obs import (
    iprobe_calls,
    loop_busy_fraction,
    polling_tax_seconds,
    render_timeline,
    write_chrome_trace,
)
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB, fmt_time
from repro.workloads.ohb import GROUP_BY

OUT = pathlib.Path(__file__).resolve().parent.parent / "results" / "groupby_trace.json"


def main() -> None:
    n_workers, data = 2, 4 * GiB
    sim = SparkSimCluster(FRONTERA, n_workers, "mpi-opt", obs_causal=True)
    sim.launch()
    profile = GROUP_BY.build_profile(FRONTERA, n_workers, data, fidelity=0.1)
    result = sim.run_profile(profile)
    sim.shutdown()

    print(f"GroupByTest {data >> 30} GiB / {n_workers} workers / "
          f"{sim.transport.name}: {fmt_time(result.total_seconds)} total\n")
    print(render_timeline(result))

    snap = result.metrics
    print(f"\nmetrics: {len(snap)} series from one run")
    print(f"  polling tax:     {fmt_time(polling_tax_seconds(snap))}")
    print(f"  loop busy:       {100 * loop_busy_fraction(snap):.1f}%")
    print(f"  MPI_Iprobe:      {iprobe_calls(snap):.0f} calls")
    print(f"  fetch wait:      {fmt_time(snap.total('spark.scheduler.fetch_wait_s'))}")
    print(f"  remote fetched:  {snap.total('spark.scheduler.remote_fetch_bytes') / GiB:.2f} GiB")

    OUT.parent.mkdir(exist_ok=True)
    write_chrome_trace(result, OUT)
    print(f"\nChrome trace: {OUT}")
    print("open chrome://tracing (or https://ui.perfetto.dev) and load it")


if __name__ == "__main__":
    main()
