"""The injector's contract: faults land on LinkState / fault_filter on time."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    AvailabilityReport,
    ExecutorCrash,
    FaultInjector,
    FaultPlan,
    MessageChaos,
    NicDegradation,
    NodeCrash,
    Partition,
    RankKill,
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


class TestNodeAndExecutorFaults:
    def test_node_crash_fires_on_schedule(self):
        env, cluster = make_cluster()
        report = fresh_report()
        plan = FaultPlan(seed=1).add(NodeCrash(at_s=0.5, node_index=1))
        FaultInjector(cluster, report=report).install(plan).arm()
        env.run()
        assert cluster.node(1).index in cluster.link_state.failed
        assert len(report.timeline) == 1
        assert report.timeline[0].t_s == pytest.approx(0.5)
        assert report.timeline[0].kind == "NodeCrash"

    def test_executor_crash_kills_executor_and_host(self):
        env, cluster = make_cluster()
        ex = SimpleNamespace(alive=True, node=cluster.node(2), exec_id=0)
        plan = FaultPlan(seed=1).add(ExecutorCrash(at_s=0.1, exec_id=0))
        inj = FaultInjector(cluster, executors=[ex]).install(plan)
        inj.arm()
        env.run()
        assert ex.alive is False
        assert cluster.node(2).index in cluster.link_state.failed
        assert inj.fired == plan.specs


class TestLinkFaults:
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

    def test_partition_heals(self):
        env, cluster = make_cluster()
        plan = FaultPlan(seed=1).add(
            Partition(at_s=0.0, group_a=(0, 1), group_b=(2, 3), duration_s=0.2)
        )
        FaultInjector(cluster).install(plan).arm()
        samples = {}

        def probe(env):
            n0, n2 = cluster.node(0), cluster.node(2)
            yield env.timeout(0.1)
            samples["during"] = cluster.link_state.path_up(n0, n2)
            yield env.timeout(0.2)
            samples["after"] = cluster.link_state.path_up(n0, n2)

        env.process(probe(env))
        env.run()
        assert samples["during"] is False
        assert samples["after"] is True


class TestMessageChaos:
    def test_filter_installed_then_removed(self):
        env, cluster = make_cluster()
        plan = FaultPlan(seed=1).add(
            MessageChaos(at_s=0.0, drop_p=1.0, duration_s=0.2)
        )
        FaultInjector(cluster).install(plan).arm()
        samples = {}

        def probe(env):
            yield env.timeout(0.1)
            samples["filter"] = cluster.fault_filter
            samples["verdict"] = cluster.fault_filter(
                cluster.node(0), cluster.node(1), 1024, None
            )

        env.process(probe(env))
        env.run()
        assert samples["filter"] is not None
        assert samples["verdict"] == ("drop", 0.0)
        # Window closed: the gremlin uninstalls itself.
        assert cluster.fault_filter is None

    def test_min_bytes_spares_small_messages(self):
        env, cluster = make_cluster()
        plan = FaultPlan(seed=1).add(
            MessageChaos(at_s=0.0, drop_p=1.0, min_bytes=4096)
        )
        inj = FaultInjector(cluster).install(plan)
        inj.arm()
        env.run()
        n0, n1 = cluster.node(0), cluster.node(1)
        assert cluster.fault_filter(n0, n1, 100, None) is None
        assert cluster.fault_filter(n0, n1, 8192, None) == ("drop", 0.0)

    def test_chaos_decisions_replay_with_seed(self):
        verdicts = []
        for _ in range(2):
            env, cluster = make_cluster()
            plan = FaultPlan(seed=99).add(
                MessageChaos(at_s=0.0, drop_p=0.3, delay_p=0.3, delay_s=1e-3)
            )
            FaultInjector(cluster).install(plan).arm()
            env.run()
            n0, n1 = cluster.node(0), cluster.node(1)
            verdicts.append(
                [cluster.fault_filter(n0, n1, 1024, None) for _ in range(50)]
            )
        assert verdicts[0] == verdicts[1]


class TestRankKill:
    def test_rank_kill_without_mpi_world_is_recorded_skipped(self):
        env, cluster = make_cluster()
        report = fresh_report()
        plan = FaultPlan(seed=1).add(RankKill(at_s=0.0, gid=3))
        FaultInjector(cluster, report=report).install(plan).arm()
        env.run()
        kinds = [ev.kind for ev in report.timeline]
        assert "skipped" in kinds
