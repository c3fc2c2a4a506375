"""The long-lived multi-tenant job server over :class:`SparkSimCluster`.

``JobServer`` owns one launched cluster for the whole arrival trace: a
submission process feeds :class:`~repro.jobserver.arrivals.JobRequest`\\ s
in at their arrival times, an :class:`InterJobScheduler` decides at every
decision point (arrival or completion) which queued applications start
and with what concurrency grant, and each admitted application runs as
its own simulation process via ``SparkSimCluster.run_application`` —
concurrent tenants contend for executor slots under their grants.

Observable surface:

* metrics — ``jobserver.submitted`` / ``.started`` / ``.finished`` /
  ``.failed`` counters in the cluster's registry (the JCT and queueing
  delay distributions are read off the :class:`JobRecord`\\ s);
* causal — ``job.submit`` / ``job.start`` / ``job.finish`` events, which
  the critical-path analyzer turns into per-application ``sched-wait``
  segments (queueing delay as a first-class critical-path citizen);
* :class:`JobRecord` per job (submit/start/finish timestamps, grant,
  stage seconds) collected into a :class:`JobServerResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.jobserver.arrivals import OHB_WORKLOADS, ArrivalTrace, JobRequest
from repro.jobserver.schedulers import (
    ClusterView,
    InterJobScheduler,
    PendingJob,
    RunningJob,
    SchedulePlan,
)
from repro.simnet.events import Event
from repro.simnet.resources import SlotGate

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.profile import WorkloadProfile
    from repro.spark.deploy import SparkSimCluster


@dataclass
class JobRecord:
    """Lifecycle of one application through the server."""

    request: JobRequest
    submit_s: float = 0.0
    start_s: float | None = None
    finish_s: float | None = None
    granted: int = 0
    n_executors: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    failed: str | None = None

    @property
    def queue_delay_s(self) -> float | None:
        return None if self.start_s is None else self.start_s - self.submit_s

    @property
    def jct_s(self) -> float | None:
        """Job completion time: submission to finish (queueing included)."""
        return None if self.finish_s is None else self.finish_s - self.submit_s


@dataclass
class JobServerResult:
    """One (transport, scheduler) sweep over an arrival trace."""

    transport: str
    scheduler: str
    system: str
    n_workers: int
    seed: int
    records: list[JobRecord] = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def finished(self) -> list[JobRecord]:
        return [r for r in self.records if r.finish_s is not None]

    def jcts(self) -> list[float]:
        return [r.jct_s for r in self.finished]

    def queue_delays(self) -> list[float]:
        return [r.queue_delay_s for r in self.finished]


def build_job_profile(
    request: JobRequest,
    system,
    n_workers: int,
    cores_per_executor: int | None = None,
) -> "WorkloadProfile":
    """The scaled profile for one job, at the *granted* geometry.

    OHB workloads take the per-job size directly; HiBench specs are
    rescaled with :func:`dataclasses.replace` so per-round shuffle volume
    and HDFS output shrink proportionally with the sampled input size
    (the suite's Huge-scale constants stay untouched).
    """
    name = request.workload
    if name in OHB_WORKLOADS:
        from repro.workloads.ohb import GROUP_BY, SORT_BY

        workload = {w.name: w for w in (GROUP_BY, SORT_BY)}[name]
        return workload.build_profile(
            system,
            n_workers,
            nominal_bytes=request.nominal_bytes,
            cores_per_executor=cores_per_executor,
            fidelity=request.fidelity,
        )
    from repro.workloads.hibench import SPECS

    spec = SPECS[name]
    scale = request.nominal_bytes / spec.nominal_bytes
    spec = replace(
        spec,
        nominal_bytes=request.nominal_bytes,
        shuffle_bytes_per_round=int(spec.shuffle_bytes_per_round * scale),
        hdfs_output_bytes=int(spec.hdfs_output_bytes * scale),
    )
    return spec.build_profile(
        system,
        n_workers,
        cores_per_executor=cores_per_executor,
        fidelity=request.fidelity,
    )


class JobServer:
    """Admit a continuous stream of applications onto one live cluster.

    The cluster must already be constructed (it is launched here if
    needed); the server never tears it down — callers own shutdown, so a
    server can be followed by another trace on the same cluster, and the
    shutdown-with-in-flight-apps path stays testable.
    """

    def __init__(
        self,
        cluster: "SparkSimCluster",
        scheduler: InterJobScheduler,
        trace: ArrivalTrace,
        profile_builder: Callable[..., "WorkloadProfile"] = build_job_profile,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.trace = trace
        self.profile_builder = profile_builder
        self.records: dict[int, JobRecord] = {}
        self._pending: list[JobRequest] = []  # arrival order
        self._running: dict[int, RunningJob] = {}
        self._gates: dict[int, SlotGate] = {}
        self._n_finished = 0
        self._all_done = Event(cluster.env)
        self._started = False
        m = cluster.env.metrics
        self._m_submitted = m.counter("jobserver.submitted")
        self._m_started = m.counter("jobserver.started")
        self._m_finished = m.counter("jobserver.finished")
        self._m_failed = m.counter("jobserver.failed")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Launch the cluster (if needed) and spawn the submission process."""
        if self._started:
            raise RuntimeError("job server already started")
        self._started = True
        if not self.cluster._launched:
            self.cluster.launch()
        self.cluster.env.process(self._submission_main(), name="jobserver-submit")

    def run(self) -> JobServerResult:
        """Drive the simulation until every job in the trace has finished."""
        self.start()
        env = self.cluster.env
        if len(self.trace) == 0:
            self._all_done.succeed()
        env.run(until=self._all_done)
        return self.result()

    def result(self) -> JobServerResult:
        records = [self.records[j.app_id] for j in self.trace.jobs]
        return JobServerResult(
            transport=self.cluster.transport.name,
            scheduler=self.scheduler.name,
            system=self.cluster.system.name,
            n_workers=self.cluster.n_workers,
            seed=self.trace.seed,
            records=records,
            makespan_s=self.cluster.env.now,
        )

    # -- simulation processes ------------------------------------------------
    def _submission_main(self):
        env = self.cluster.env
        for job in self.trace.jobs:
            if job.submit_s > env.now:
                yield env.timeout(job.submit_s - env.now)
            self.records[job.app_id] = JobRecord(request=job, submit_s=env.now)
            self._pending.append(job)
            self._m_submitted.value += 1.0
            env.causal.event(
                "job.submit", None,
                app=job.name, workload=job.workload, parallelism=job.parallelism,
            )
            self._decide()

    def _app_main(self, job: JobRequest, profile, app):
        env = self.cluster.env
        record = self.records[job.app_id]
        try:
            stage_seconds = yield from self.cluster.run_application(profile, app)
            record.stage_seconds = stage_seconds
        except Exception as exc:  # noqa: BLE001 - a tenant failure is data
            record.failed = f"{type(exc).__name__}: {exc}"
            self._m_failed.value += 1.0
        record.finish_s = env.now
        self._m_finished.value += 1.0
        env.causal.event(
            "job.finish", None,
            app=job.name, jct_s=record.jct_s, failed=record.failed is not None,
        )
        self._running.pop(job.app_id, None)
        self._gates.pop(job.app_id, None)
        self._n_finished += 1
        if self._n_finished == len(self.trace) and not self._all_done.triggered:
            self._all_done.succeed()
        else:
            self._decide()

    # -- scheduling ----------------------------------------------------------
    def view(self) -> ClusterView:
        """The immutable scheduler-facing snapshot, at ``env.now``."""
        return ClusterView(
            now=self.cluster.env.now,
            executor_slots=tuple(
                (ex.exec_id, ex.slots.capacity) for ex in self.cluster.executors
            ),
            pending=tuple(
                PendingJob(
                    app_id=j.app_id,
                    workload=j.workload,
                    submit_s=self.records[j.app_id].submit_s,
                    parallelism=j.parallelism,
                )
                for j in self._pending
            ),
            running=tuple(self._running[k] for k in sorted(self._running)),
        )

    def _decide(self) -> None:
        self.apply_plan(self.scheduler.plan(self.view()))

    def apply_plan(self, plan: SchedulePlan) -> None:
        """Start admitted applications and re-cap running grants."""
        for app_id, cap in plan.recap:
            gate = self._gates.get(app_id)
            if gate is None:
                continue  # finished (or packed) since the view was taken
            gate.set_capacity(cap)
            self._running[app_id] = replace(self._running[app_id], granted=cap)
        by_id = {j.app_id: j for j in self._pending}
        for admission in plan.admit:
            job = by_id.get(admission.app_id)
            if job is None:
                raise ValueError(
                    f"plan admits unknown/non-pending app {admission.app_id}"
                )
            self._admit(job, admission.slots, admission.executor_ids)
            self._pending.remove(job)

    def _admit(
        self, job: JobRequest, slots: int, executor_ids: tuple[int, ...] | None
    ) -> None:
        env = self.cluster.env
        record = self.records[job.app_id]
        # Packed apps own whole executors — the subset's slots bound their
        # concurrency natively, no gate needed. Shared-cluster apps get a
        # SlotGate at the scheduler's grant.
        gate: SlotGate | None = None
        if executor_ids is None:
            gate = SlotGate(env, capacity=slots)
            self._gates[job.app_id] = gate
        app = self.cluster.register_app(
            job.app_id, name=job.name, gate=gate, executor_ids=executor_ids
        )
        n_exec = len(self.cluster.app_executors(app))
        profile = self.profile_builder(
            job,
            self.cluster.system,
            n_exec,
            cores_per_executor=self.cluster.cores_per_executor,
        )
        record.start_s = env.now
        record.granted = slots
        record.n_executors = n_exec
        self._running[job.app_id] = RunningJob(
            app_id=job.app_id,
            parallelism=job.parallelism,
            granted=slots,
            executor_ids=executor_ids,
        )
        self._m_started.value += 1.0
        env.causal.event(
            "job.start", None,
            app=job.name, granted=slots, n_executors=n_exec,
            queue_delay_s=record.queue_delay_s,
        )
        env.process(self._app_main(job, profile, app), name=f"{job.name}-driver")


def run_trace(
    cluster: "SparkSimCluster",
    scheduler: InterJobScheduler,
    trace: ArrivalTrace,
    shutdown: bool = True,
) -> JobServerResult:
    """Convenience: run one trace to completion on ``cluster``."""
    server = JobServer(cluster, scheduler, trace)
    result = server.run()
    if shutdown:
        cluster.shutdown()
    return result
