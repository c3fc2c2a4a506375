"""Event-loop integration: selector, accepts, reads, blocking ops."""

import pytest

from repro.core.mpi_netty import MpiBasicEventLoop
from repro.netty import (
    Bootstrap,
    Channel,
    ChannelHandler,
    EventLoop,
    ServerBootstrap,
)
from repro.simnet import IB_EDR, SimCluster, SimEngine, tcp_over
from repro.simnet.sockets import SocketAddress, SocketStack


@pytest.fixture
def rig():
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=4)
    stack = SocketStack(env, cluster, tcp_over(IB_EDR))
    return env, cluster, stack


class Collector(ChannelHandler):
    """Terminal inbound handler collecting messages."""

    def __init__(self):
        self.messages = []
        self.active = 0
        self.inactive = 0

    def channel_active(self, ctx):
        self.active += 1

    def channel_read(self, ctx, msg):
        self.messages.append(msg)

    def channel_inactive(self, ctx):
        self.inactive += 1


class Echo(ChannelHandler):
    """Server handler echoing messages back."""

    def channel_read(self, ctx, msg):
        ctx.channel.write_and_flush(f"echo:{msg}")


class TestClientServer:
    def test_connect_and_exchange(self, rig):
        env, cluster, stack = rig
        server_loop = EventLoop(env, "server-loop")
        client_loop = EventLoop(env, "client-loop")
        server_loop.start()
        client_loop.start()

        collector = Collector()
        (ServerBootstrap(stack)
            .group(server_loop)
            .child_handler(lambda ch: ch.pipeline.add_last("echo", Echo()))
            .bind(0, 7077))

        def client(env):
            channel = yield from (
                Bootstrap(stack)
                .group(client_loop)
                .handler(lambda ch: ch.pipeline.add_last("collect", collector))
                .connect(1, SocketAddress("node0", 7077))
            )
            channel.write_and_flush("hello")
            channel.write_and_flush("world")
            yield env.timeout(1.0)
            server_loop.stop()
            client_loop.stop()

        env.process(client(env))
        env.run()
        assert collector.messages == ["echo:hello", "echo:world"]
        assert collector.active == 1

    def test_many_clients_one_server_loop(self, rig):
        env, cluster, stack = rig
        server_loop = EventLoop(env, "server-loop")
        client_loop = EventLoop(env, "client-loop")
        server_loop.start()
        client_loop.start()

        received = []

        class Sink(ChannelHandler):
            def channel_read(self, ctx, msg):
                received.append(msg)

        (ServerBootstrap(stack)
            .group(server_loop)
            .child_handler(lambda ch: ch.pipeline.add_last("sink", Sink()))
            .bind(0, 7077))

        def client(env, i):
            channel = yield from (
                Bootstrap(stack)
                .group(client_loop)
                .connect(1, SocketAddress("node0", 7077))
            )
            channel.write_and_flush(f"msg-{i}")

        for i in range(5):
            env.process(client(env, i))

        def stopper(env):
            yield env.timeout(1.0)
            server_loop.stop()
            client_loop.stop()

        env.process(stopper(env))
        env.run()
        assert sorted(received) == [f"msg-{i}" for i in range(5)]

    def test_channel_close_fires_inactive_on_peer(self, rig):
        env, cluster, stack = rig
        server_loop = EventLoop(env, "server-loop")
        client_loop = EventLoop(env, "client-loop")
        server_loop.start()
        client_loop.start()

        collector = Collector()
        (ServerBootstrap(stack)
            .group(server_loop)
            .child_handler(lambda ch: ch.pipeline.add_last("c", collector))
            .bind(0, 7077))

        def client(env):
            channel = yield from (
                Bootstrap(stack).group(client_loop).connect(1, SocketAddress("node0", 7077))
            )
            channel.write_and_flush("bye")
            yield env.timeout(0.5)
            channel.close()
            yield env.timeout(0.5)
            server_loop.stop()
            client_loop.stop()

        env.process(client(env))
        env.run()
        assert collector.messages == ["bye"]
        assert collector.inactive == 1


class TestTasksAndBlocking:
    def test_blocking_continuation_blocks_loop(self, rig):
        # A handler that blocks the loop thread (the Optimized design's
        # MPI_Recv inside a ChannelHandler) holds every channel of that
        # loop: a read on a second channel waits for the continuation.
        env, cluster, stack = rig
        server_loop = EventLoop(env, "server-loop")
        client_loop = EventLoop(env, "client-loop")
        server_loop.start()
        client_loop.start()
        order = []

        def blocking_op():
            order.append(("block-start", env.now))
            yield env.timeout(1.0)
            order.append(("block-end", env.now))

        class Blocker(ChannelHandler):
            def channel_read(self, ctx, msg):
                if msg == "block":
                    ctx.channel.event_loop.run_blocking(blocking_op())
                else:
                    order.append((msg, env.now))

        (ServerBootstrap(stack)
            .group(server_loop)
            .child_handler(lambda ch: ch.pipeline.add_last("blocker", Blocker()))
            .bind(0, 7077))

        def client(env, msg, delay):
            channel = yield from (
                Bootstrap(stack).group(client_loop).connect(1, SocketAddress("node0", 7077))
            )
            yield env.timeout(delay)
            channel.write_and_flush(msg)

        def stopper(env):
            yield env.timeout(5.0)
            server_loop.stop()
            client_loop.stop()

        env.process(client(env, "block", 0.1))
        env.process(client(env, "second", 0.2))
        env.process(stopper(env))
        env.run()
        assert [k for k, _ in order] == ["block-start", "block-end", "second"]
        t = dict(order)
        # "second" was sent at about t=0.2, while the loop thread was held.
        assert t["block-start"] < 0.2
        assert t["second"] >= t["block-start"] + 1.0

    def test_loop_counts_iterations_and_reads(self, rig):
        env, cluster, stack = rig
        server_loop = EventLoop(env, "server-loop")
        client_loop = EventLoop(env, "client-loop")
        server_loop.start()
        client_loop.start()
        (ServerBootstrap(stack)
            .group(server_loop)
            .child_handler(lambda ch: None)
            .bind(0, 1))

        def client(env):
            channel = yield from (
                Bootstrap(stack).group(client_loop).connect(1, SocketAddress("node0", 1))
            )
            for i in range(3):
                channel.write_and_flush(i)
            yield env.timeout(1.0)
            server_loop.stop()
            client_loop.stop()

        env.process(client(env))
        env.run()
        m = env.metrics
        assert m.counter("netty.loop.server-loop.messages_read").value == 3
        assert m.counter("netty.loop.server-loop.iterations").value >= 1

    def test_unnamed_loops_count_apart(self):
        # Counters are keyed by loop name: two unnamed loops on one engine
        # must not add into one shared set, whichever loop class they are.
        for loop_cls in (EventLoop, MpiBasicEventLoop):
            env = SimEngine()
            cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=4)
            stack = SocketStack(env, cluster, tcp_over(IB_EDR))
            busy, idle = loop_cls(env), loop_cls(env)
            client_loop = EventLoop(env, "client-loop")
            loops = (busy, idle, client_loop)
            for loop in loops:
                loop.start()
            (ServerBootstrap(stack)
                .group(busy)
                .child_handler(lambda ch: None)
                .bind(0, 1))

            def client(env):
                channel = yield from (
                    Bootstrap(stack).group(client_loop).connect(1, SocketAddress("node0", 1))
                )
                for i in range(2):
                    yield env.timeout(0.1)
                    channel.write_and_flush(i)
                yield env.timeout(0.1)
                for loop in loops:
                    loop.stop()

            env.process(client(env))
            env.run()
            snap = env.metrics.snapshot()
            owners = {name.split(".")[2] for name in snap.names("netty.loop.*")}
            assert owners == {loop.name for loop in loops}, loop_cls
            busy_c, idle_c = f"netty.loop.{busy.name}", f"netty.loop.{idle.name}"
            assert snap.value(f"{busy_c}.messages_read") == 2
            assert snap.value(f"{idle_c}.messages_read") == 0
            assert snap.value(f"{busy_c}.iterations") > snap.value(f"{idle_c}.iterations")

    def test_double_start_rejected(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        loop.start()
        with pytest.raises(RuntimeError):
            loop.start()
        loop.stop()
        env.run()
