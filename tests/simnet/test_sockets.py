"""Unit tests for the simulated stream socket layer."""

import pytest

from repro.simnet import IB_EDR, SimCluster, SimEngine, tcp_over
from repro.simnet.sockets import SocketAddress, SocketError, SocketStack
from repro.util.units import KiB, MiB


def recv(sock):
    """The next segment, read the way the NIO loop reads: wait until the
    socket is readable, then take without blocking."""
    yield sock.when_readable()
    return sock.recv_nowait()


@pytest.fixture
def env():
    return SimEngine()


@pytest.fixture
def rig(env):
    cluster = SimCluster(env, IB_EDR, n_nodes=3, cores_per_node=4)
    stack = SocketStack(env, cluster, tcp_over(IB_EDR))
    return env, cluster, stack


class TestConnectionEstablishment:
    def test_connect_accept(self, rig):
        env, cluster, stack = rig
        listener = stack.listen(0, 7077)

        def server(env):
            sock = yield listener.accept()
            return sock.remote.host

        def client(env):
            sock = yield from stack.connect(1, SocketAddress("node0", 7077))
            return sock.remote

        s = env.process(server(env))
        c = env.process(client(env))
        env.run()
        assert s.value == "node1"
        assert c.value == SocketAddress("node0", 7077)
        assert env.now > 0  # handshake took wire time

    def test_connection_refused(self, rig):
        env, cluster, stack = rig

        def client(env):
            yield from stack.connect(1, SocketAddress("node0", 9999))

        env.process(client(env))
        with pytest.raises(SocketError, match="refused"):
            env.run()

    def test_double_bind_rejected(self, rig):
        env, cluster, stack = rig
        stack.listen(0, 7077)
        with pytest.raises(SocketError, match="in use"):
            stack.listen(0, 7077)


class TestDataTransfer:
    def _establish(self, rig):
        env, cluster, stack = rig
        listener = stack.listen(0, 7077)
        pair = {}

        def server(env):
            pair["server"] = yield listener.accept()

        def client(env):
            pair["client"] = yield from stack.connect(1, SocketAddress("node0", 7077))

        env.process(server(env))
        env.process(client(env))
        env.run()
        return env, pair["client"], pair["server"]

    def test_send_recv_roundtrip(self, rig):
        env, client, server = self._establish(rig)

        def receiver(env):
            seg = yield from recv(server)
            return seg.payload

        client.send({"msg": "hello"}, nbytes=100)
        r = env.process(receiver(env))
        env.run()
        assert r.value == {"msg": "hello"}

    def test_in_order_delivery_mixed_sizes(self, rig):
        # A small message must never overtake a large one on the same stream.
        env, client, server = self._establish(rig)
        got = []

        def receiver(env):
            for _ in range(3):
                seg = yield from recv(server)
                got.append(seg.payload)

        client.send("big", nbytes=4 * MiB)
        client.send("small", nbytes=16)
        client.send("tiny", nbytes=1)
        env.process(receiver(env))
        env.run()
        assert got == ["big", "small", "tiny"]

    def test_bidirectional(self, rig):
        env, client, server = self._establish(rig)

        def ping(env):
            client.send("ping", 64)
            seg = yield from recv(client)
            return seg.payload

        def pong(env):
            seg = yield from recv(server)
            server.send(seg.payload + "->pong", 64)

        p = env.process(ping(env))
        env.process(pong(env))
        env.run()
        assert p.value == "ping->pong"

    def test_transfer_takes_wire_time(self, rig):
        env, client, server = self._establish(rig)
        t0 = env.now

        def receiver(env):
            yield from recv(server)
            return env.now - t0

        client.send("payload", nbytes=4 * MiB)
        r = env.process(receiver(env))
        env.run()
        model = client.model
        assert r.value >= model.serialization_time(4 * MiB)

    def test_byte_accounting(self, rig):
        env, client, server = self._establish(rig)

        def receiver(env):
            yield from recv(server)
            yield from recv(server)

        client.send("a", 100)
        client.send("b", 200)
        env.process(receiver(env))
        env.run()
        assert client.bytes_sent == 300
        assert server.bytes_received == 300

    def test_close_delivers_eof(self, rig):
        env, client, server = self._establish(rig)

        def receiver(env):
            seg = yield from recv(server)
            first = seg
            seg = yield from recv(server)
            return (first.payload, seg.eof)

        client.send("last", 10)
        client.close()
        r = env.process(receiver(env))
        env.run()
        assert r.value == ("last", True)

    def test_send_after_close_raises(self, rig):
        env, client, server = self._establish(rig)
        client.close()
        with pytest.raises(SocketError, match="closed"):
            client.send("x", 1)

    def test_recv_nowait_and_readable(self, rig):
        env, client, server = self._establish(rig)
        assert not server.readable
        assert server.recv_nowait() is None

        def driver(env):
            client.send("x", 10)
            # Wait long enough for delivery.
            yield env.timeout(1.0)
            assert server.readable
            seg = server.recv_nowait()
            return seg.payload

        p = env.process(driver(env))
        env.run()
        assert p.value == "x"

    def test_negative_nbytes_rejected(self, rig):
        env, client, server = self._establish(rig)
        with pytest.raises(ValueError):
            client.send("x", -5)
