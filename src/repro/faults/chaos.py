"""The chaos harness: run one fault plan against one transport, measure.

A :class:`ChaosScenario` names everything needed to reproduce one cell of
the fault-recovery matrix: cluster geometry, transport, MPI fault mode,
workload size and the fault plan. :func:`run_scenario` executes the cell
twice on fresh same-seed clusters — once clean for the baseline, once with
the injector armed at the start of the shuffle-read stage — and returns an
:class:`~repro.faults.report.AvailabilityReport` whose rendering is
byte-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import JobFailedError, ResilientScheduler
from repro.faults.report import AvailabilityReport
from repro.harness.profile import (
    ComputeStage,
    ShuffleReadStage,
    ShuffleWriteStage,
    WorkloadProfile,
)
from repro.mpi.errors import MPIError
from repro.simnet.events import SimError
from repro.spark.deploy import SparkSimCluster
from repro.transports import transport_class
from repro.util.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.systems import SystemConfig


def make_chaos_profile(
    n_executors: int,
    cores_per_executor: int = 4,
    shuffle_bytes: int = 256 * MiB,
    name: str = "chaos",
) -> WorkloadProfile:
    """A small gen → write → read job with a uniform shuffle matrix."""
    n_tasks = n_executors * cores_per_executor
    fetch = np.full((n_tasks, n_executors), shuffle_bytes / (n_tasks * n_executors))
    blocks = np.ones((n_tasks, n_executors), dtype=np.int64)
    return WorkloadProfile(
        name=name,
        nominal_bytes=shuffle_bytes,
        n_executors=n_executors,
        cores_per_executor=cores_per_executor,
        stages=[
            ComputeStage("gen", np.full(n_tasks, 0.01)),
            ShuffleWriteStage(
                "write",
                np.full(n_tasks, 0.005),
                np.full(n_tasks, shuffle_bytes / n_tasks),
            ),
            ShuffleReadStage("read", fetch, blocks, np.full(n_tasks, 0.002)),
        ],
    )


@dataclass
class ChaosScenario:
    """One reproducible cell of the fault-recovery matrix."""

    name: str
    system: "SystemConfig"
    n_workers: int
    transport: str
    plan: FaultPlan
    mpi_fault_mode: str = "abort"
    cores_per_executor: int = 4
    shuffle_bytes: int = 256 * MiB
    deadline_s: float = 120.0
    # Causal tracing of the faulted run (flight log of span aborts).
    obs_causal: bool = False

    def build_cluster(self) -> SparkSimCluster:
        return SparkSimCluster(
            self.system,
            self.n_workers,
            self.transport,
            cores_per_executor=self.cores_per_executor,
            seed=self.plan.seed,
            mpi_fault_mode=self.mpi_fault_mode,
            obs_causal=self.obs_causal,
        )

    def build_profile(self) -> WorkloadProfile:
        return make_chaos_profile(
            self.n_workers, self.cores_per_executor, self.shuffle_bytes
        )


def run_scenario(scenario: ChaosScenario) -> AvailabilityReport:
    """Baseline run, then the faulted run; both from the same seed."""
    transport = transport_class(scenario.transport)
    report = AvailabilityReport(
        scenario=scenario.name,
        transport=transport.name,
        fault_mode=scenario.mpi_fault_mode if transport.uses_mpi else "n/a",
        seed=scenario.plan.seed,
    )

    # -- baseline: same cluster/seed, no injector ---------------------------
    sim = scenario.build_cluster()
    sim.launch()
    sched = ResilientScheduler(sim)
    result = sched.run_profile(scenario.build_profile(), scenario.deadline_s)
    report.baseline_seconds = result.total_seconds
    baseline_snap = sim.env.metrics.snapshot()
    sim.shutdown()

    # -- faulted: identical cluster, injector armed at the read stage -------
    sim = scenario.build_cluster()
    sim.launch()
    injector = FaultInjector(sim.cluster, executors=sim.executors, report=report)
    injector.install(scenario.plan)
    sched = ResilientScheduler(sim, report)

    def arm_at_read(stage) -> None:
        if isinstance(stage, ShuffleReadStage) and not injector._armed:
            injector.arm()

    sched.on_stage_start = arm_at_read
    t0 = sim.env.now
    try:
        sched.run_profile(scenario.build_profile(), scenario.deadline_s)
        report.job_completed = True
    except JobFailedError as exc:
        report.job_failure = str(exc)
    except (MPIError, SimError) as exc:
        # The transport tore the job down below the scheduler (e.g. a
        # world-abort surfacing through an event loop).
        report.job_failure = f"{type(exc).__name__}: {exc}"
    report.faulted_seconds = sim.env.now - t0
    # What the faults cost, counter by counter: extra tasks run, extra MPI
    # traffic, extra polling. Both runs share a seed, so nonzero deltas are
    # attributable to the injected faults (plus recovery work).
    faulted_snap = sim.env.metrics.snapshot()
    for pattern in ("spark.scheduler.*", "mpi.world.*", "netty.loop.*.poll_tax_s"):
        report.metric_deltas.update(faulted_snap.delta(baseline_snap, pattern))
    sim.shutdown()
    return report
