"""The injector's contract: faults land on LinkState on time."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    AvailabilityReport,
    ExecutorCrash,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NicDegradation,
)
from repro.simnet import IB_HDR, SimCluster, SimEngine


def make_cluster(n_nodes=4):
    env = SimEngine()
    cluster = SimCluster(env, IB_HDR, n_nodes=n_nodes, cores_per_node=2)
    return env, cluster


def fresh_report():
    return AvailabilityReport(scenario="t", transport="nio", fault_mode="n/a", seed=0)


class TestArming:
    def test_arm_requires_install(self):
        env, cluster = make_cluster()
        with pytest.raises(RuntimeError, match="install"):
            FaultInjector(cluster).arm()

    def test_double_arm_rejected(self):
        env, cluster = make_cluster()
        inj = FaultInjector(cluster).install(FaultPlan(seed=1))
        inj.arm()
        with pytest.raises(RuntimeError, match="armed"):
            inj.arm()

    @pytest.mark.parametrize(
        "spec, error, match",
        [
            (ExecutorCrash(at_s=0.1, exec_id=1), ValueError, "executor 1"),
            (NicDegradation(at_s=0.1, node_index=-1), ValueError, "node -1"),
            (NicDegradation(at_s=0.1, node_index=4), ValueError, "node 4"),
            (NicDegradation(at_s=0.1, node_index=1, factor=0.5), ValueError, "factor"),
            (FaultSpec(at_s=0.1), TypeError, "unknown fault spec"),
            # a negative restore delay used to fail mid-run in nic-restore
            (NicDegradation(at_s=0.1, node_index=1, duration_s=-0.5), ValueError,
             "duration_s"),
            # a negative time used to fire at arm time without a word
            (ExecutorCrash(at_s=-0.1, exec_id=0), ValueError, "at_s"),
            (NicDegradation(at_s=-0.1, node_index=1), ValueError, "at_s"),
        ],
    )
    def test_arm_rejects_specs_the_cluster_cannot_run(self, spec, error, match):
        env, cluster = make_cluster()
        ex = SimpleNamespace(node=cluster.node(2), exec_id=0)
        inj = FaultInjector(cluster, executors=[ex]).install(FaultPlan().add(spec))
        with pytest.raises(error, match=match):
            inj.arm()
        # Rejected before any countdown started: nothing fires.
        env.run()
        assert inj.fired == []
        assert cluster.link_state.generation == 0


class TestNodeAndExecutorFaults:
    def test_executor_crash_kills_executor_and_host(self):
        env, cluster = make_cluster()
        report = fresh_report()
        ex = SimpleNamespace(node=cluster.node(2), exec_id=0)
        plan = FaultPlan(seed=1).add(ExecutorCrash(at_s=0.5, exec_id=0))
        inj = FaultInjector(cluster, executors=[ex], report=report).install(plan)
        inj.arm()
        env.run()
        assert cluster.node(2).index in cluster.link_state.failed
        assert inj.fired == plan.specs
        assert len(report.timeline) == 1
        assert report.timeline[0].t_s == pytest.approx(0.5)
        assert report.timeline[0].kind == "ExecutorCrash"


class TestLinkFaults:
    @pytest.mark.parametrize("duration_s, text", [
        (None, "degrade NIC of node 1 x4 at +0.1s"),
        (0.0, "degrade NIC of node 1 x4 at +0.1s for 0s"),
        (0.4, "degrade NIC of node 1 x4 at +0.1s for 0.4s"),
    ])
    def test_describe_names_any_restore(self, duration_s, text):
        spec = NicDegradation(at_s=0.1, node_index=1, duration_s=duration_s)
        assert spec.describe() == text

    def test_nic_degradation_window(self):
        env, cluster = make_cluster()
        plan = FaultPlan(seed=1).add(
            NicDegradation(at_s=0.1, node_index=1, factor=4.0, duration_s=0.4)
        )
        FaultInjector(cluster).install(plan).arm()
        samples = {}

        def probe(env):
            n0, n1 = cluster.node(0), cluster.node(1)
            yield env.timeout(0.3)
            samples["during"] = cluster.link_state.slowdown(n0, n1)
            yield env.timeout(0.5)
            samples["after"] = cluster.link_state.slowdown(n0, n1)

        env.process(probe(env))
        env.run()
        assert samples["during"] == pytest.approx(4.0)
        assert samples["after"] == pytest.approx(1.0)
