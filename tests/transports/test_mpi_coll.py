"""The collective shuffle transport (mpi-coll): one alltoallv per boundary.

Registration, end-to-end shuffle correctness, determinism, causal
visibility, and the chaos interplay: a collective participant dying
mid-exchange must surface as a stage resubmission (shrink) or a failed
job (abort) — never a hang.
"""

import pytest

from repro.faults import (
    ChaosScenario,
    ExecutorCrash,
    FaultPlan,
    NicDegradation,
    run_scenario,
)
from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.simnet import IB_HDR, SimCluster, SimEngine
from repro.spark.conf import SparkConf
from repro.spark.deploy import SparkSimCluster
from repro.transports import TRANSPORTS, make_transport
from repro.transports.mpi_coll import MpiCollectiveTransport
from repro.transports.mpi_opt import MpiOptimizedTransport
from repro.util.units import MiB


def _run(transport, n_workers=2, cores=2, shuffle_bytes=8 << 20, **kwargs):
    sim = SparkSimCluster(
        INTERNAL_CLUSTER, n_workers, transport,
        cores_per_executor=cores, **kwargs,
    )
    sim.launch()
    result = sim.run_profile(
        make_chaos_profile(n_workers, cores, shuffle_bytes=shuffle_bytes)
    )
    sim.shutdown()
    return sim, result


class TestRegistration:
    def test_registered(self):
        assert TRANSPORTS["mpi-coll"] is MpiCollectiveTransport

    def test_make_transport(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=2)
        t = make_transport("mpi-coll", env, cluster)
        assert t.name == "mpi-coll"
        assert t.collective_shuffle
        # Inherits the optimized design's taxes: no polling thread, no
        # compute inflation (Sec. V-B), just a different fetch plan.
        assert isinstance(t, MpiOptimizedTransport)
        assert t.polling_tax_cores == 0
        assert t.compute_inflation == 1.0

    def test_other_transports_do_not_collect(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=2)
        for name in ("nio", "rdma", "mpi-basic", "mpi-opt"):
            t = make_transport(name, env, cluster)
            assert not t.collective_shuffle

    def test_sparkconf_selection(self):
        conf = SparkConf({"spark.repro.transport": "mpi-coll"})
        sim = SparkSimCluster.from_conf(INTERNAL_CLUSTER, 2, conf)
        assert sim.transport.name == "mpi-coll"
        assert sim.transport.collective_shuffle


class TestEndToEnd:
    def test_profile_completes(self):
        _, result = _run("mpi-coll")
        assert set(result.stage_seconds) == {"gen", "write", "read"}
        assert all(s > 0 for s in result.stage_seconds.values())

    def test_remote_bytes_match_fetch_matrix(self):
        # Each executor's remote-byte counter must equal the off-diagonal
        # share of its tasks' fetch rows — same accounting as mpi-opt.
        n_workers, cores = 2, 2
        sim_coll, _ = _run("mpi-coll", n_workers, cores)
        sim_opt, _ = _run("mpi-opt", n_workers, cores)
        coll = [ex.bytes_fetched_remote for ex in sim_coll.executors]
        opt = [ex.bytes_fetched_remote for ex in sim_opt.executors]
        assert coll == opt
        assert sum(coll) > 0

    def test_deterministic(self):
        _, a = _run("mpi-coll", shuffle_bytes=16 * MiB)
        _, b = _run("mpi-coll", shuffle_bytes=16 * MiB)
        assert a.total_seconds == b.total_seconds
        assert a.stage_seconds == b.stage_seconds

    def test_read_stage_faster_than_opt(self):
        # The point of the exercise: the collective plan drains the same
        # byte matrix faster than per-block fetches (fig-9 style claim,
        # asserted loosely here; benchmarks pin the >=30% number).
        _, coll = _run("mpi-coll", shuffle_bytes=64 * MiB)
        _, opt = _run("mpi-opt", shuffle_bytes=64 * MiB)
        assert coll.stage_seconds["read"] < opt.stage_seconds["read"]

    def test_causal_trace_sees_collective(self):
        sim, result = _run("mpi-coll", obs_enabled=True, obs_causal=True)
        assert result.flight is not None
        names = [ev.name for ev in result.flight.events]
        assert "coll.start" in names
        assert "coll.finish" in names
        legs = {
            ev.attrs.get("leg")
            for ev in result.flight.events
            if ev.name == "msg.send" and ev.attrs
        }
        assert "mpi-coll" in legs

    def test_traced_run_timing_identical(self):
        _, plain = _run("mpi-coll")
        _, traced = _run("mpi-coll", obs_enabled=True, obs_causal=True)
        assert plain.stage_seconds == traced.stage_seconds


SEED = 7


def _plan():
    return (
        FaultPlan(seed=SEED, name="crash+degrade")
        .add(NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5))
        .add(ExecutorCrash(at_s=0.005, exec_id=1))
    )


def _scenario(mode):
    # 256 MiB keeps the collective exchange in flight past the 5 ms crash:
    # at 64 MiB the whole alltoallv drains before the injector fires and
    # the "fault" run is byte-identical to the baseline.
    return ChaosScenario(
        name="coll-chaos",
        system=INTERNAL_CLUSTER,
        n_workers=4,
        transport="mpi-coll",
        plan=_plan(),
        mpi_fault_mode=mode,
        cores_per_executor=4,
        shuffle_bytes=256 * MiB,
        deadline_s=120.0,
    )


class TestChaosInterplay:
    """A participant dies mid-exchange; the matrix cells for mpi-coll."""

    def test_abort_mode_fails_the_job(self):
        report = run_scenario(_scenario("abort"))
        assert not report.job_completed, report.render()
        assert "abort" in report.job_failure.lower()

    def test_shrink_mode_resubmits_and_recovers(self):
        report = run_scenario(_scenario("shrink"))
        assert report.job_completed, report.render()
        assert report.stage_resubmissions >= 1
        # Recovery costs time over the baseline run.
        assert report.faulted_seconds > report.baseline_seconds

    def test_shrink_report_deterministic(self):
        a = run_scenario(_scenario("shrink"))
        b = run_scenario(_scenario("shrink"))
        assert a.render() == b.render()
