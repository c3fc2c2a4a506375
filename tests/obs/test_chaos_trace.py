"""Flight recording under fault injection (satellite of the causal PR).

The invariant: a traced run that dies — channel death on the socket
transports, world abort on MPI — must not leave dangling sends.  Every
open span is closed with a ``span.aborted`` record and the log ends with
an explicit terminal event (``channel.dead`` / ``mpi.abort``), so a
crashed run's trace is still a complete, analyzable artifact.
"""

import pytest

from repro.faults import (
    ChaosScenario,
    ExecutorCrash,
    FaultPlan,
    NicDegradation,
)
from repro.faults.chaos import run_scenario
from repro.faults.injector import FaultInjector
from repro.faults.recovery import JobFailedError, ResilientScheduler
from repro.harness.profile import ShuffleReadStage
from repro.harness.systems import INTERNAL_CLUSTER
from repro.mpi.errors import MPIError
from repro.simnet.events import SimError
from repro.util.units import MiB


def _named(flight, name):
    """The events of ``flight`` called ``name``, in record order."""
    return [ev for ev in flight.events if ev.name == name]


def crash_plan(seed=7):
    return (
        FaultPlan(seed=seed, name="crash+degrade")
        .add(NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5))
        .add(ExecutorCrash(at_s=0.005, exec_id=1))
    )


def traced_scenario(transport, mode="abort"):
    return ChaosScenario(
        name="trace-cell",
        system=INTERNAL_CLUSTER,
        n_workers=4,
        transport=transport,
        plan=crash_plan(),
        mpi_fault_mode=mode,
        cores_per_executor=4,
        shuffle_bytes=64 * MiB,
        deadline_s=60.0,
        obs_causal=True,
    )


def run_faulted(scenario):
    """The faulted half of :func:`run_scenario`, keeping the flight log."""
    sim = scenario.build_cluster()
    sim.launch()
    injector = FaultInjector(
        sim.cluster,
        mpi_world=sim.transport.mpi_world,
        executors=sim.executors,
    )
    injector.install(scenario.plan)
    sched = ResilientScheduler(sim)

    def arm_at_read(stage):
        if isinstance(stage, ShuffleReadStage) and not injector._armed:
            injector.arm()

    sched.on_stage_start = arm_at_read
    failure = None
    try:
        sched.run_profile(scenario.build_profile(), scenario.deadline_s)
    except (JobFailedError, MPIError, SimError) as exc:
        failure = exc
    flight = sim.env.causal.flight
    sim.shutdown()
    return flight, failure


class TestChannelDeath:
    @pytest.fixture(scope="class", params=["nio", "rdma"])
    def crashed(self, request):
        return run_faulted(traced_scenario(request.param))

    def test_faults_are_recorded(self, crashed):
        flight, failure = crashed
        assert failure is None  # sockets recover via resubmission
        kinds = [ev.attrs["kind"] for ev in _named(flight, "fault.inject")]
        assert "ExecutorCrash" in kinds and "NicDegradation" in kinds

    def test_dead_channels_leave_terminals(self, crashed):
        flight, _ = crashed
        terminals = _named(flight, "channel.dead")
        assert terminals
        assert all(ev.attrs["ch"] and ev.attrs["reason"] for ev in terminals)

    def test_no_dangling_spans(self, crashed):
        flight, _ = crashed
        assert flight.open_spans() == []
        assert flight.index().unclosed_spans() == []
        # aborted spans were really open: each had a send, never a recv
        recvd = {ev.span for ev in _named(flight, "msg.recv")}
        matched = {ev.span for ev in _named(flight, "mpi.match")}
        sent = {ev.span for ev in _named(flight, "msg.send")}
        for ev in _named(flight, "span.aborted"):
            assert ev.span in sent
            assert ev.span not in recvd | matched


class TestMpiAbort:
    @pytest.fixture(scope="class", params=["mpi-basic", "mpi-opt"])
    def aborted(self, request):
        return run_faulted(traced_scenario(request.param, mode="abort"))

    def test_job_dies_with_tombstone(self, aborted):
        flight, failure = aborted
        assert failure is not None
        tombs = _named(flight, "mpi.abort")
        assert len(tombs) == 1
        assert tombs[0].attrs["reason"]

    def test_abort_sweep_closes_everything(self, aborted):
        flight, _ = aborted
        assert flight.open_spans() == []
        # the log agrees with the live table: every send delivered or tombstoned
        assert flight.index().aborted
        assert flight.index().unclosed_spans() == []

    def test_trace_still_has_the_story(self, aborted):
        flight, _ = aborted
        assert _named(flight, "fault.inject")
        assert _named(flight, "msg.send")  # traffic before the abort
        # the tombstone is the last word on the trace's own timeline
        assert flight.events[-1].t >= max(
            ev.t for ev in _named(flight, "msg.send")
        )


class TestShrinkRecovery:
    def test_shrink_mode_keeps_spans_closed_without_abort(self):
        flight, failure = run_faulted(traced_scenario("mpi-opt", mode="shrink"))
        assert failure is None
        assert not _named(flight, "mpi.abort")
        assert flight.open_spans() == []
        assert flight.index().unclosed_spans() == []

    def test_run_scenario_accepts_obs_causal(self):
        report = run_scenario(traced_scenario("nio"))
        assert report.job_completed
