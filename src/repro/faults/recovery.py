"""Spark-side recovery: task retry, stage resubmission, blacklisting.

:class:`ResilientScheduler` is a recovery *policy over*
``SparkSimCluster.run_profile``, not a second implementation of it: the
cluster's one stage loop runs the stages and its one task body spends
every task's time; this module supplies only the stage step
(:meth:`ResilientScheduler._run_stage`) that decides which tasks run
where and what happens when they die. It supervises every task: a task
that dies with its executor is retried (with backoff) on a survivor; a
reduce task whose fetch fails raises
``FetchFailedException``, which — exactly as in Spark's DAGScheduler —
marks the source executor's map output lost, recomputes those map tasks on
survivors, redistributes the shuffle matrix, and resubmits only the
unfinished reduce tasks. Dead executors are blacklisted so retries never
land on them. Optional speculative execution races a second copy of
stragglers.

What it deliberately does *not* do is reach below the Spark layer: if the
transport underneath cannot survive a fault (MPI in world-abort mode),
every retry fails too and the job dies — that asymmetry between transports
under identical fault plans is the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.harness.profile import ShuffleReadStage, ShuffleWriteStage
from repro.mpi.errors import WorldAbortedError
from repro.simnet.events import Interrupt
from repro.spark.deploy import JobFailedError, RunResult, SimExecutor
from repro.spark.network import FetchFailedException

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.report import AvailabilityReport
    from repro.harness.profile import Stage, WorkloadProfile
    from repro.simnet.events import Process
    from repro.simnet.topology import SimNode
    from repro.spark.conf import SparkConf
    from repro.spark.deploy import SparkSimCluster


@dataclass
class RecoveryPolicy:
    """Knobs mirroring Spark's fault-tolerance configuration."""

    max_task_failures: int = 4  # spark.task.maxFailures
    max_stage_attempts: int = 4  # spark.stage.maxConsecutiveAttempts
    retry_backoff_s: float = 0.05
    blacklist_enabled: bool = True  # spark.blacklist.enabled
    speculation: bool = False  # spark.speculation
    speculation_multiplier: float = 1.5
    speculation_quantile: float = 0.75

    @classmethod
    def from_conf(cls, conf: "SparkConf") -> "RecoveryPolicy":
        return cls(
            max_task_failures=conf.get_int("spark.task.maxFailures", 4),
            max_stage_attempts=conf.get_int("spark.stage.maxConsecutiveAttempts", 4),
            blacklist_enabled=conf.get_bool("spark.blacklist.enabled", True),
            speculation=conf.get_bool("spark.speculation", False),
            speculation_multiplier=conf.get_float("spark.speculation.multiplier", 1.5),
            speculation_quantile=conf.get_float("spark.speculation.quantile", 0.75),
        )


class ExecutorBlacklist:
    """Executors the scheduler will no longer place tasks on."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._banned: set[int] = set()

    def add(self, exec_id: int) -> None:
        if self.enabled:
            self._banned.add(exec_id)

    def is_blacklisted(self, exec_id: int) -> bool:
        return exec_id in self._banned

    def __len__(self) -> int:
        return len(self._banned)


class ResilientScheduler:
    """Drives a workload profile with Spark's recovery semantics."""

    def __init__(
        self,
        sim: "SparkSimCluster",
        policy: RecoveryPolicy | None = None,
        report: "AvailabilityReport | None" = None,
    ) -> None:
        self.sim = sim
        self.policy = policy or RecoveryPolicy()
        self.report = report
        self.blacklist = ExecutorBlacklist(self.policy.blacklist_enabled)
        # Running task process -> the executor it occupies, so executor
        # death can interrupt exactly its own tasks.
        self._running: dict["Process", SimExecutor] = {}
        self._last_write: ShuffleWriteStage | None = None
        self._fetch_failed_execs: set[int] = set()
        # Collective transports: the current stage attempt's shared
        # alltoallv exchange (None on per-block transports). Rebuilt per
        # attempt so resubmission re-plans the traffic onto survivors.
        self._current_exchange = None
        # Hook: called with each stage right before it starts (the chaos
        # harness arms the fault injector at the shuffle-read stage).
        self.on_stage_start = None
        sim.cluster.link_state.on_change(self._on_link_event)

    # -- failure detection --------------------------------------------------
    def _on_link_event(self, kind: str, payload: Any) -> None:
        if kind != "node-failed":
            return
        self.sim.env.process(
            self._handle_node_failure(payload), name="driver-detect-failure"
        )

    def _handle_node_failure(self, node: "SimNode") -> Generator:
        # The driver learns of executor loss after the detection delay
        # (heartbeat timeout), not instantly.
        env = self.sim.env
        yield env.timeout(self.sim.cluster.link_state.detect_delay_s)
        for ex in self.sim.executors:
            if ex.node is not node:
                continue
            if ex.alive:
                ex.alive = False
            self.blacklist.add(ex.exec_id)
            if self.report is not None:
                self.report.executors_lost += 1
                self.report.blacklisted = len(self.blacklist)
                self.report.record(
                    env.now, "ExecutorLost", f"driver marked executor {ex.exec_id} lost"
                )
            for proc, owner in list(self._running.items()):
                if owner is ex and proc.is_alive:
                    proc.interrupt(("executor-lost", ex.exec_id))

    # -- job driving --------------------------------------------------------
    def run_profile(
        self, profile: "WorkloadProfile", deadline_s: float | None = None
    ) -> RunResult:
        return self.sim.run_profile(
            profile, run_stage=self._run_stage, deadline_s=deadline_s
        )

    # -- stage machinery ----------------------------------------------------
    def _run_stage(self, stage: "Stage") -> Generator:
        """The stage step: supervised attempts until every task finished."""
        env = self.sim.env
        if self.on_stage_start is not None:
            self.on_stage_start(stage)
        if isinstance(stage, ShuffleReadStage):
            # Recovery rewrites the fetch matrix; keep the profile pristine.
            stage = ShuffleReadStage(
                stage.label,
                stage.fetch_bytes.copy(),
                stage.blocks.copy(),
                stage.combine_seconds_per_task.copy(),
            )
        if isinstance(stage, ShuffleWriteStage):
            self._last_write = stage
        finished: set[int] = set()
        durations: list[float] = []
        attempt = 0
        while len(finished) < stage.n_tasks:
            attempt += 1
            if attempt > self.policy.max_stage_attempts:
                raise JobFailedError(
                    f"stage {stage.label} exhausted "
                    f"{self.policy.max_stage_attempts} attempts"
                )
            self._fetch_failed_execs = set()
            pending = [t for t in range(stage.n_tasks) if t not in finished]
            # Collective transports, one alltoallv per stage attempt:
            # aggregate the pending tasks' (possibly recovery-rewritten)
            # fetch rows at their planned executors. A participant dying
            # mid-exchange fails the whole exchange →
            # FetchFailedException → this loop's resubmission path, never
            # a hang.
            placement: dict[int, int] = {}
            for t in pending:
                ex = self._pick_executor(t)
                if ex is None:
                    raise JobFailedError("no live executors left")
                placement[t] = ex.exec_id
            self._current_exchange = self.sim.stage_exchange(
                stage, self.sim.executors, tasks=pending, placement=placement
            )
            sups = [
                env.process(
                    self._supervise(stage, t, finished, durations),
                    name=f"{stage.label}-sup{t}",
                )
                for t in pending
            ]
            yield env.all_of(sups)
            if len(finished) == stage.n_tasks:
                return
            # Supervisors that hit FetchFailedException returned without
            # finishing: Spark's FetchFailed path — recompute the lost map
            # output, then resubmit only the unfinished reduce tasks.
            if self.report is not None:
                self.report.stage_resubmissions += 1
                self.report.record(
                    env.now,
                    "StageResubmit",
                    f"{stage.label} attempt {attempt} lost map output on "
                    f"executors {sorted(self._fetch_failed_execs)}",
                )
            yield from self._recover_lost_maps(stage)

    def _recover_lost_maps(self, stage: "Stage") -> Generator:
        """Recompute map output lost with dead executors, re-home its bytes."""
        env = self.sim.env
        lost = sorted(
            e
            for e in self._fetch_failed_execs
            if e is not None and not self._is_usable(self.sim.executors[e])
        )
        survivors = [ex for ex in self.sim.executors if self._is_usable(ex)]
        if not survivors:
            raise JobFailedError("no live executors left to recover onto")
        if not lost:
            # Transient fetch failure (chaos window, degraded NIC): nothing
            # to recompute — back off briefly and retry as-is.
            yield env.timeout(self.policy.retry_backoff_s)
            return
        # Re-run the parent write stage's tasks that lived on the lost
        # executors (their RAM-disk output died with the node).
        if self._last_write is not None:
            n_exec = len(self.sim.executors)
            redo = [
                t
                for t in range(self._last_write.n_tasks)
                if (t % n_exec) in lost
            ]
            procs = [
                env.process(
                    self._task_body(survivors[i % len(survivors)], self._last_write, t),
                    name=f"map-redo-{t}",
                )
                for i, t in enumerate(redo)
            ]
            if procs:
                yield env.all_of(procs)
        # The recomputed output now lives on survivors: move the lost
        # executors' fetch columns there, split evenly.
        if isinstance(stage, ShuffleReadStage):
            surv_ids = [ex.exec_id for ex in survivors]
            for e in lost:
                col_bytes = stage.fetch_bytes[:, e].copy()
                col_blocks = stage.blocks[:, e].copy()
                stage.fetch_bytes[:, e] = 0
                stage.blocks[:, e] = 0
                for s in surv_ids:
                    stage.fetch_bytes[:, s] += col_bytes / len(surv_ids)
                base = col_blocks // len(surv_ids)
                rem = col_blocks % len(surv_ids)
                for j, s in enumerate(surv_ids):
                    stage.blocks[:, s] += base + (rem > j)

    # -- task supervision ---------------------------------------------------
    def _is_usable(self, ex: SimExecutor) -> bool:
        return ex.alive and not self.blacklist.is_blacklisted(ex.exec_id)

    def _pick_executor(
        self, t: int, exclude: SimExecutor | None = None
    ) -> SimExecutor | None:
        live = [ex for ex in self.sim.executors if self._is_usable(ex)]
        if exclude is not None and len(live) > 1:
            live = [ex for ex in live if ex is not exclude]
        if not live:
            return None
        preferred = self.sim.executors[t % len(self.sim.executors)]
        if preferred in live:
            return preferred
        return live[t % len(live)]

    def _supervise(
        self, stage: "Stage", t: int, finished: set[int], durations: list[float]
    ) -> Generator:
        env = self.sim.env
        failures = 0
        while True:
            ex = self._pick_executor(t)
            if ex is None:
                raise JobFailedError("no live executors left")
            t0 = env.now
            proc = env.process(
                self._task_body(ex, stage, t), name=f"{stage.label}-t{t}f{failures}"
            )
            self._running[proc] = ex
            outcome = yield from self._await_task(proc, ex, stage, t, durations)
            if outcome == "done":
                durations.append(env.now - t0)
                finished.add(t)
                return
            if outcome == "fetch-failed":
                # Stage-level failure: settle quietly, the stage loop
                # resubmits this task after map recovery.
                return
            failures += 1
            if self.report is not None:
                self.report.task_retries += 1
            if failures > self.policy.max_task_failures:
                raise JobFailedError(
                    f"task {t} of {stage.label} failed "
                    f"{failures} times (> spark.task.maxFailures)"
                )
            yield env.timeout(self.policy.retry_backoff_s * failures)

    def _await_task(
        self,
        proc: "Process",
        ex: SimExecutor,
        stage: "Stage",
        t: int,
        durations: list[float],
    ) -> Generator:
        """Wait for one task attempt (racing a speculative copy if armed).

        Returns "done" | "retry" | "fetch-failed"; raises JobFailedError on
        unrecoverable outcomes.
        """
        env = self.sim.env
        copy: "Process | None" = None
        try:
            thr = self._speculation_threshold(ex, stage, t, durations)
            if thr is not None:
                yield env.any_of([proc, env.timeout(thr)])
                if not proc.triggered:
                    ex2 = self._pick_executor(t, exclude=ex)
                    if ex2 is not None:
                        copy = env.process(
                            self._task_body(ex2, stage, t),
                            name=f"{stage.label}-t{t}spec",
                        )
                        self._running[copy] = ex2
                        if self.report is not None:
                            self.report.speculative_launches += 1
            if copy is None:
                yield proc
            else:
                yield env.any_of([proc, copy])
            return "done"
        except Interrupt:
            return "retry"
        except FetchFailedException as exc:
            if exc.exec_id is not None:
                self._fetch_failed_execs.add(exc.exec_id)
            return "fetch-failed"
        except WorldAbortedError as exc:
            raise JobFailedError(f"MPI world aborted: {exc}") from exc
        finally:
            # Whatever happened, no attempt of this task may keep running.
            for p in (proc, copy):
                if p is not None:
                    self._running.pop(p, None)
                    if p.is_alive:
                        p.interrupt("abandoned")

    def _speculation_threshold(
        self, ex: SimExecutor, stage: "Stage", t: int, durations: list[float]
    ) -> float | None:
        """Spark's rule: once a quantile of tasks finished, a task running
        longer than multiplier × median is a straggler. Before enough
        history exists, fall back on the task's nominal duration."""
        if not self.policy.speculation:
            return None
        delay = self.sim.cost.task_sched_delay_s
        need = max(1, int(self.policy.speculation_quantile * stage.n_tasks))
        if len(durations) >= need:
            median = sorted(durations)[len(durations) // 2]
            return max(self.policy.speculation_multiplier * median, delay)
        costs = ex.nominal_costs(stage, t)
        if costs is None or (nominal := sum(costs)) <= 0:
            return None
        return self.policy.speculation_multiplier * nominal + delay

    def _task_body(self, ex: SimExecutor, stage: "Stage", t: int) -> Generator:
        """One unaccounted attempt: the shared task body under a slot claim
        made inside the ``try``, so an interrupt while queued withdraws it."""
        req = ex.slots.request()
        try:
            yield req
            yield from ex.task_body(
                stage, t, self.sim.executors, ex.exec_id, self._current_exchange
            )
        finally:
            ex.slots.cancel(req)
