"""Unit tests for SimCluster / SimNode wire-path timing and contention."""

import pytest

from repro.simnet import IB_EDR, IB_HDR, SimCluster, SimEngine, mpi_over, tcp_over
from repro.util.units import MiB


@pytest.fixture
def env():
    return SimEngine()


def make_cluster(env, n=2, cores=4):
    return SimCluster(env, IB_HDR, n_nodes=n, cores_per_node=cores)


class TestClusterConstruction:
    def test_nodes_created(self, env):
        cluster = make_cluster(env, n=4, cores=56)
        assert len(cluster) == 4
        assert cluster.node(2).name == "node2"
        assert cluster.node("node1").index == 1
        assert cluster.node(cluster.nodes[0]) is cluster.nodes[0]
        assert cluster.node(0).cores == 56

    def test_invalid_sizes(self, env):
        with pytest.raises(ValueError):
            SimCluster(env, IB_HDR, n_nodes=0, cores_per_node=1)
        with pytest.raises(ValueError):
            SimCluster(env, IB_HDR, n_nodes=1, cores_per_node=0)


class TestWirePath:
    def test_cross_node_charges_model(self, env):
        cluster = make_cluster(env)
        model = mpi_over(IB_HDR)
        nbytes = 1 * MiB

        def sender(env):
            elapsed = yield from cluster.wire_path(
                cluster.node(0), cluster.node(1), nbytes, model
            )
            return elapsed

        p = env.process(sender(env))
        env.run()
        expected = model.serialization_time(nbytes) + model.protocol_latency(nbytes)
        assert p.value == pytest.approx(expected)

    def test_same_node_uses_loopback(self, env):
        cluster = make_cluster(env)
        model = tcp_over(IB_HDR)

        def sender(env):
            elapsed = yield from cluster.wire_path(
                cluster.node(0), cluster.node(0), 1 * MiB, model
            )
            return elapsed

        p = env.process(sender(env))
        env.run()
        # Loopback should be far faster than the TCP path.
        assert p.value < model.serialization_time(1 * MiB)
        assert cluster.node(0).nic_stats.tx_bytes == 0  # NIC not involved

    def test_tx_contention_shares_bandwidth(self, env):
        # Two concurrent transfers out of one node share its TX capacity
        # (fluid model): both take ~2x the solo serialization time.
        cluster = make_cluster(env, n=3)
        model = mpi_over(IB_HDR)
        nbytes = 8 * MiB
        finish = {}

        def sender(env, dst, key):
            yield from cluster.wire_path(cluster.node(0), cluster.node(dst), nbytes, model)
            finish[key] = env.now

        env.process(sender(env, 1, "a"))
        env.process(sender(env, 2, "b"))
        env.run()
        solo = nbytes * model.per_byte_s
        assert finish["a"] == pytest.approx(finish["b"], rel=1e-6)
        assert finish["a"] == pytest.approx(2 * solo, rel=0.05)

    def test_rx_incast_shares_bandwidth(self, env):
        cluster = make_cluster(env, n=3)
        model = mpi_over(IB_HDR)
        nbytes = 8 * MiB
        finishes = []

        def sender(env, src):
            yield from cluster.wire_path(cluster.node(src), cluster.node(0), nbytes, model)
            finishes.append(env.now)

        env.process(sender(env, 1))
        env.process(sender(env, 2))
        env.run()
        solo = nbytes * model.per_byte_s
        # Incast at node0's RX: the two flows split the RX capacity.
        assert finishes[0] == pytest.approx(finishes[1], rel=1e-6)
        assert finishes[0] == pytest.approx(2 * solo, rel=0.05)

    def test_disjoint_pairs_run_in_parallel(self, env):
        cluster = make_cluster(env, n=4)
        model = mpi_over(IB_HDR)
        nbytes = 8 * MiB
        finishes = []

        def sender(env, src, dst):
            yield from cluster.wire_path(cluster.node(src), cluster.node(dst), nbytes, model)
            finishes.append(env.now)

        env.process(sender(env, 0, 1))
        env.process(sender(env, 2, 3))
        env.run()
        assert finishes[0] == pytest.approx(finishes[1])

    def test_nic_stats_updated(self, env):
        cluster = make_cluster(env)

        def sender(env):
            yield from cluster.wire_path(
                cluster.node(0), cluster.node(1), 1000, mpi_over(IB_HDR)
            )

        env.process(sender(env))
        env.run()
        assert cluster.node(0).nic_stats.tx_bytes == 1000
        assert cluster.node(0).nic_stats.tx_messages == 1
        assert cluster.node(1).nic_stats.rx_bytes == 1000

    def test_trace_records_by_model(self, env):
        cluster = make_cluster(env)
        model = mpi_over(IB_HDR)

        def sender(env):
            yield from cluster.wire_path(cluster.node(0), cluster.node(1), 500, model)
            yield from cluster.wire_path(cluster.node(0), cluster.node(1), 700, model)

        env.process(sender(env))
        env.run()
        assert cluster.trace.bytes_by_model[model.name] == 1200
        assert cluster.trace.total_bytes() == 1200
        snap = env.metrics.snapshot()
        assert snap.value(f"simnet.wire.{model.name}.bytes") == 1200

    def test_wire_histogram_observes_each_message(self, env):
        cluster = make_cluster(env)
        model = mpi_over(IB_HDR)
        elapsed = []

        def sender(env):
            for nbytes in (42, 4 * MiB):  # control bypass, then a fluid flow
                elapsed.append(
                    (yield from cluster.wire_path(
                        cluster.node(0), cluster.node(1), nbytes, model
                    ))
                )

        env.process(sender(env))
        env.run()
        hist = env.metrics.snapshot().histograms[f"simnet.wire.{model.name}.elapsed_s"]
        assert hist.n == 2
        assert hist.total == sum(elapsed)
        assert (hist.min, hist.max) == (min(elapsed), max(elapsed))

    def test_negative_bytes_rejected(self, env):
        cluster = make_cluster(env)

        def sender(env):
            yield from cluster.wire_path(
                cluster.node(0), cluster.node(1), -1, mpi_over(IB_HDR)
            )

        env.process(sender(env))
        with pytest.raises(ValueError):
            env.run()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            env = SimEngine()
            cluster = SimCluster(env, IB_EDR, n_nodes=4, cores_per_node=8)
            model = tcp_over(IB_EDR)
            order = []

            def sender(env, src, dst, nbytes):
                yield from cluster.wire_path(
                    cluster.node(src), cluster.node(dst), nbytes, model
                )
                order.append((env.now, src, dst))

            for i in range(4):
                for j in range(4):
                    if i != j:
                        env.process(sender(env, i, j, (i + 1) * 1000 * (j + 1)))
            env.run()
            return order

        assert run_once() == run_once()
