#!/usr/bin/env python
"""Multi-tenant quickstart: a job stream under three inter-job schedulers.

Builds one seeded 8-job Poisson arrival trace (GroupBy/SortBy plus
HiBench LR/GMM/TeraSort, sizes and parallelism sampled per job) and
replays it on a long-lived 4-worker simulated cluster under FIFO,
fair-share and executor-packing scheduling, on vanilla NIO and on
MPI4Spark-Optimized, then:

* prints the per-cell p50/p99 JCT + queueing-delay table (the same
  layer that writes ``results/BENCH_jobserver.json``),
* re-runs one contended FIFO cell with causal tracing and prints its
  critical path — queueing shows up as per-application ``sched-wait``
  pseudo-stages next to compute/wire/poll-tax.

Run:  python examples/jobserver_demo.py
"""

from repro.harness.systems import FRONTERA
from repro.jobserver import (
    FifoScheduler,
    JobServerReport,
    SCHEDULERS,
    poisson_trace,
    run_trace,
)
from repro.obs import analyze
from repro.spark.deploy import SparkSimCluster
from repro.util.units import MiB

TRACE = poisson_trace(
    seed=42,
    n_jobs=8,
    mean_interarrival_s=0.2,
    min_bytes=64 * MiB,
    max_bytes=192 * MiB,
    parallelism_choices=(8, 16, 24),
    fidelity=0.25,
)


def cluster(transport: str, **kw) -> SparkSimCluster:
    return SparkSimCluster(
        FRONTERA, n_workers=4, transport_name=transport,
        cores_per_executor=8, seed=7, **kw,
    )


def main() -> None:
    print(f"arrival trace: {len(TRACE)} jobs, last arrival "
          f"{TRACE.makespan_floor_s:.1f}s")
    for job in TRACE.jobs[:3]:
        print(f"  t={job.submit_s:5.2f}s  {job.workload:<12} "
              f"{job.nominal_bytes // MiB:4d} MiB  parallelism {job.parallelism}")
    print("  ...")

    results = [
        run_trace(cluster(transport), SCHEDULERS.create(name), TRACE)
        for transport in ("nio", "mpi-opt")
        for name in ("fifo", "fair", "pack")
    ]
    print()
    print(JobServerReport.from_results(results).render())

    # Queueing as a critical-path segment: per-app sched-wait pseudo-stages.
    # mpi-basic is the interesting cell: its polling tax shrinks the slot
    # pool, so FIFO head-of-line blocking queues deepest there.
    sim = cluster("mpi-basic", obs_causal=True)
    run_trace(sim, FifoScheduler(), TRACE, shutdown=False)
    report = analyze(sim.env.causal.flight, sim.transport.name)
    waits = [s for s in report.stages if s.seconds("sched-wait") > 0]
    sim.shutdown()
    print()
    print(f"critical path carries {len(waits)} sched-wait pseudo-stages:")
    for s in waits:
        print(f"  {s.stage:<40} {s.seconds('sched-wait'):.2f}s")


if __name__ == "__main__":
    main()
