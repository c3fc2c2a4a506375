"""Spark-side recovery semantics: retries, resubmission, liveness."""

from dataclasses import replace

import pytest

from repro.faults import (
    AvailabilityReport,
    ExecutorCrash,
    FaultInjector,
    FaultPlan,
    JobFailedError,
    NicDegradation,
    ResilientScheduler,
)
from repro.faults import recovery
from repro.faults.chaos import make_chaos_profile
from repro.harness.profile import ShuffleReadStage
from repro.harness.systems import INTERNAL_CLUSTER
from repro.simnet.interconnect import DEFAULT_COST
from repro.simnet.topology import DETECT_DELAY_S
from repro.spark.deploy import SparkSimCluster
from repro.util.units import MiB


def make_sim(n_workers=4, transport="nio", seed=0, **kw):
    return SparkSimCluster(
        INTERNAL_CLUSTER, n_workers, transport,
        cores_per_executor=4, seed=seed, **kw,
    )


def run_with_plan(plan, transport="nio", n_workers=4, shuffle_bytes=64 * MiB, **kw):
    """Run the chaos profile under `plan`, armed at the read stage."""
    sim = make_sim(n_workers, transport, seed=plan.seed, **kw)
    sim.launch()
    report = AvailabilityReport(
        scenario="unit", transport=transport, fault_mode="n/a", seed=plan.seed
    )
    injector = FaultInjector(sim.cluster, executors=sim.executors, report=report)
    injector.install(plan)
    sched = ResilientScheduler(sim, report)

    def arm_at_read(stage):
        if isinstance(stage, ShuffleReadStage) and not injector._armed:
            injector.arm()

    sched.on_stage_start = arm_at_read
    profile = make_chaos_profile(n_workers, 4, shuffle_bytes)
    try:
        result = sched.run_profile(profile, deadline_s=60.0)
    finally:
        sim.shutdown()
    return result, report


class TestSparkDefaults:
    def test_defaults_mirror_spark(self):
        # Liveness (a crashed executor is never placed on) is TestLiveness.
        assert recovery.MAX_TASK_FAILURES == 4
        assert recovery.MAX_STAGE_ATTEMPTS == 4


class TestCleanRun:
    def test_completes_without_faults(self):
        sim = make_sim()
        sim.launch()
        sched = ResilientScheduler(sim)
        result = sched.run_profile(make_chaos_profile(4, 4, 64 * MiB), 60.0)
        sim.shutdown()
        assert set(result.stage_seconds) == {"gen", "write", "read"}
        assert result.total_seconds > 0

    def test_profile_size_mismatch_rejected(self):
        sim = make_sim(n_workers=2)
        sim.launch()
        sched = ResilientScheduler(sim)
        with pytest.raises(ValueError):
            sched.run_profile(make_chaos_profile(4, 4, 64 * MiB))
        sim.shutdown()


class TestCrashRecovery:
    def test_executor_crash_mid_read_recovers(self):
        plan = FaultPlan(seed=5).add(ExecutorCrash(at_s=0.005, exec_id=1))
        result, report = run_with_plan(plan)
        assert report.executors_lost == 1
        assert report.stage_resubmissions >= 1
        # The resubmitted read stage finished: the job ran to completion.
        assert set(result.stage_seconds) == {"gen", "write", "read"}

    def test_recovery_redistributes_lost_columns(self):
        # After recovery nothing should be fetched from the dead executor;
        # the run completing at all (with a resubmission) proves the matrix
        # was re-homed onto survivors.
        plan = FaultPlan(seed=6).add(ExecutorCrash(at_s=0.004, exec_id=0))
        result, report = run_with_plan(plan)
        assert report.stage_resubmissions >= 1
        assert "ExecutorLost" in [ev.kind for ev in report.timeline]

    def test_all_executors_dead_fails_the_job(self):
        plan = FaultPlan(seed=7)
        for e in range(4):
            plan.add(ExecutorCrash(at_s=0.002 + e * 0.001, exec_id=e))
        with pytest.raises(JobFailedError):
            run_with_plan(plan)

    def test_transient_degradation_recovers_without_resubmission(self):
        plan = FaultPlan(seed=8).add(
            NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5)
        )
        result, report = run_with_plan(plan)
        assert report.executors_lost == 0
        # A slow NIC is not a lost executor: fetches finish, just later.
        assert set(result.stage_seconds) == {"gen", "write", "read"}


class TestLiveness:
    """An executor is unusable from the instant its node crashes, before
    the driver's detection delay runs out."""

    @pytest.mark.parametrize("transport,mode", [("nio", "abort"), ("mpi-opt", "shrink")])
    def test_crashed_executor_is_never_picked(self, transport, mode, monkeypatch):
        picks = []  # (time, executor) of every placement decision
        pick = ResilientScheduler._pick_executor

        def recorded(self, t):
            ex = pick(self, t)
            picks.append((self.sim.env.now, ex.exec_id))
            return ex

        monkeypatch.setattr(ResilientScheduler, "_pick_executor", recorded)
        # 2 GiB keeps both jobs running past the detection delay, so the
        # resubmitted read stage places its tasks inside the window.
        plan = FaultPlan(seed=5).add(ExecutorCrash(at_s=0.005, exec_id=1))
        _, report = run_with_plan(
            plan, transport, shuffle_bytes=2048 * MiB, mpi_fault_mode=mode
        )
        times = {ev.kind: ev.t_s for ev in report.timeline}
        crashed, lost = times["ExecutorCrash"], times["ExecutorLost"]
        assert lost == pytest.approx(crashed + DETECT_DELAY_S)
        assert 1 in {e for t, e in picks if t < crashed}
        after = [(t, e) for t, e in picks if t >= crashed]
        assert [t for t, _ in after if t < lost]
        assert 1 not in {e for _, e in after}
        assert report.executors_lost == 1


class TestSharedTaskBody:
    """The scheduler is a policy over deploy's task body, not a copy of it."""

    @staticmethod
    def _stage_seconds(resilient, cost=DEFAULT_COST):
        sim = make_sim(cost=cost)
        sim.launch()
        driver = ResilientScheduler(sim) if resilient else sim
        result = driver.run_profile(make_chaos_profile(4, 4, 64 * MiB))
        sim.shutdown()
        return result.stage_seconds

    def test_resilient_run_honours_cost_model_ramdisk_rates(self):
        # Resilient and default steps time tasks from the one model the
        # cluster was built with. A resilient run used to time tasks from
        # its own import-time copies of the ramdisk constants, so a changed
        # rate never reached it.
        before = {r: self._stage_seconds(r) for r in (False, True)}
        slow = replace(
            DEFAULT_COST,
            ramdisk_write_Bps=DEFAULT_COST.ramdisk_write_Bps / 8,
            ramdisk_read_Bps=DEFAULT_COST.ramdisk_read_Bps / 8,
        )
        after = {r: self._stage_seconds(r, slow) for r in (False, True)}
        for stage in ("write", "read"):
            assert after[True][stage] == after[False][stage]
            for resilient in (False, True):
                assert after[resilient][stage] > before[resilient][stage]
        assert after[True]["gen"] == before[True]["gen"]
