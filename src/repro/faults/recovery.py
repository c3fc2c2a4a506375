"""Spark-side recovery: task retry and stage resubmission.

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
unfinished reduce tasks. An executor whose node is in
``LinkState.failed`` is never placed on, from the instant of the crash.

What it deliberately does *not* do is reach below the Spark layer: if the
transport underneath cannot survive a fault (MPI in world-abort mode),
every retry fails too and the job dies — that asymmetry between transports
under identical fault plans is the experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.harness.profile import ShuffleReadStage, ShuffleWriteStage
from repro.mpi.errors import WorldAbortedError
from repro.simnet.events import Interrupt
from repro.simnet.topology import DETECT_DELAY_S
from repro.spark.deploy import JobFailedError, RunResult, SimExecutor
from repro.spark.network import FetchFailedException

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.report import AvailabilityReport
    from repro.harness.profile import Stage, WorkloadProfile
    from repro.simnet.events import Process
    from repro.simnet.topology import SimNode
    from repro.spark.deploy import SparkSimCluster


# Spark's fault-tolerance defaults, named after their configuration keys.
MAX_TASK_FAILURES = 4  # spark.task.maxFailures
MAX_STAGE_ATTEMPTS = 4  # spark.stage.maxConsecutiveAttempts
RETRY_BACKOFF_S = 0.05


class ResilientScheduler:
    """Drives a workload profile with Spark's recovery semantics."""

    def __init__(
        self,
        sim: "SparkSimCluster",
        report: "AvailabilityReport | None" = None,
    ) -> None:
        self.sim = sim
        self.report = report
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
        sim.cluster.link_state.on_node_failed(self._on_node_failed)

    # -- failure detection --------------------------------------------------
    def _on_node_failed(self, node: "SimNode") -> None:
        self.sim.env.process(
            self._handle_node_failure(node), name="driver-detect-failure"
        )

    def _handle_node_failure(self, node: "SimNode") -> Generator:
        # The driver learns of executor loss after the detection delay
        # (heartbeat timeout), not instantly.
        env = self.sim.env
        yield env.timeout(DETECT_DELAY_S)
        for ex in self.sim.executors:
            if ex.node is not node:
                continue
            if self.report is not None:
                self.report.executors_lost += 1
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
        attempt = 0
        while len(finished) < stage.n_tasks:
            attempt += 1
            if attempt > MAX_STAGE_ATTEMPTS:
                raise JobFailedError(
                    f"stage {stage.label} exhausted "
                    f"{MAX_STAGE_ATTEMPTS} attempts"
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
                    self._supervise(stage, t, finished),
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
            # Transient fetch failure (every source still usable): nothing
            # to recompute — back off briefly and retry as-is.
            yield env.timeout(RETRY_BACKOFF_S)
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
        return ex.node.index not in self.sim.cluster.link_state.failed

    def _pick_executor(self, t: int) -> SimExecutor | None:
        live = [ex for ex in self.sim.executors if self._is_usable(ex)]
        if not live:
            return None
        preferred = self.sim.executors[t % len(self.sim.executors)]
        if preferred in live:
            return preferred
        return live[t % len(live)]

    def _supervise(self, stage: "Stage", t: int, finished: set[int]) -> Generator:
        env = self.sim.env
        failures = 0
        while True:
            ex = self._pick_executor(t)
            if ex is None:
                raise JobFailedError("no live executors left")
            proc = env.process(
                self._task_body(ex, stage, t), name=f"{stage.label}-t{t}f{failures}"
            )
            self._running[proc] = ex
            outcome = yield from self._await_task(proc)
            if outcome == "done":
                finished.add(t)
                return
            if outcome == "fetch-failed":
                # Stage-level failure: settle quietly, the stage loop
                # resubmits this task after map recovery.
                return
            failures += 1
            if self.report is not None:
                self.report.task_retries += 1
            if failures > MAX_TASK_FAILURES:
                raise JobFailedError(
                    f"task {t} of {stage.label} failed "
                    f"{failures} times (> spark.task.maxFailures)"
                )
            yield env.timeout(RETRY_BACKOFF_S * failures)

    def _await_task(self, proc: "Process") -> Generator:
        """Wait for one task attempt.

        Returns "done" | "retry" | "fetch-failed"; raises JobFailedError on
        unrecoverable outcomes.
        """
        try:
            yield proc
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
            self._running.pop(proc, None)
            if proc.is_alive:
                proc.interrupt("abandoned")

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
