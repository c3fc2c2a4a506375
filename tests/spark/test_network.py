"""Transport layer integration: chunk fetches and RPCs end-to-end."""

import pytest

from repro.harness.systems import FRONTERA
from repro.netty import EventLoop
from repro.simnet import IB_EDR, SimCluster, SimEngine, tcp_over
from repro.simnet.sockets import SocketAddress, SocketStack
from repro.spark.deploy import TARGET_REQUEST_BYTES, SparkSimCluster, _OpenStream
from repro.spark.network import (
    OneForOneStreamManager,
    RpcHandler,
    TransportClientFactory,
    TransportContext,
    TransportError,
)
from repro.transports import TRANSPORTS
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

PER_BLOCK_TRANSPORTS = sorted(
    name for name, cls in TRANSPORTS.items() if not cls.collective_shuffle
)


class EchoRpc(RpcHandler):
    def __init__(self):
        self.one_ways = []

    def receive(self, client_channel, payload, reply):
        if payload == "fail":
            raise ValueError("requested failure")
        reply(("echo", payload), 32)

    def receive_one_way(self, client_channel, payload):
        self.one_ways.append(payload)


@pytest.fixture
def rig():
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=4)
    stack = SocketStack(env, cluster, tcp_over(IB_EDR))
    rpc = EchoRpc()
    streams = OneForOneStreamManager()
    context = TransportContext(stack, rpc, streams)
    server_loop = EventLoop(env, "server")
    client_loop = EventLoop(env, "client")
    server_loop.start()
    client_loop.start()
    context.create_server(server_loop, 0, 7077)
    return env, context, streams, rpc, client_loop, server_loop


def run_client(rig, body):
    """Run `body(client)` as a sim process; return its result."""
    env, context, streams, rpc, client_loop, server_loop = rig

    def main(env):
        client = yield from context.create_client(
            client_loop, 1, SocketAddress("node0", 7077)
        )
        result = yield from body(client)
        server_loop.stop()
        client_loop.stop()
        return result

    proc = env.process(main(env))
    env.run()
    return proc.value


class TestRpc:
    def test_rpc_roundtrip(self, rig):
        def body(client):
            reply = yield client.send_rpc("hello", nbytes=5)
            return reply

        assert run_client(rig, body) == ("echo", "hello")

    def test_rpc_failure_propagates(self, rig):
        def body(client):
            try:
                yield client.send_rpc("fail")
            except TransportError as exc:
                return str(exc)

        assert "requested failure" in run_client(rig, body)

    def test_concurrent_rpcs_matched_by_id(self, rig):
        def body(client):
            futures = [client.send_rpc(i) for i in range(5)]
            out = []
            for f in futures:
                reply = yield f
                out.append(reply[1])
            return out

        assert run_client(rig, body) == [0, 1, 2, 3, 4]

    def test_one_way_message(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig

        def body(client):
            client.send_one_way({"heartbeat": 1})
            yield client.env.timeout(0.5)
            return rpc.one_ways

        assert run_client(rig, body) == [{"heartbeat": 1}]


class TestChunkFetch:
    def test_fetch_chunk(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        stream_id = streams.register_stream(
            lambda idx, n: (f"chunk-{idx}", 1000 * (idx + 1))
        )

        def body(client):
            result = yield client.fetch_chunk(stream_id, 2)
            return (result.chunk, result.chunk_nbytes)

        assert run_client(rig, body) == ("chunk-2", 3000)

    def test_fetch_unknown_stream_fails(self, rig):
        def body(client):
            try:
                yield client.fetch_chunk(999_999, 0)
            except TransportError as exc:
                return "failed"

        assert run_client(rig, body) == "failed"

    def test_pipelined_fetches(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        stream_id = streams.register_stream(lambda idx, n: (idx, 100))

        def body(client):
            futures = [client.fetch_chunk(stream_id, i) for i in range(8)]
            chunks = []
            for f in futures:
                result = yield f
                chunks.append(result.chunk)
            return chunks

        assert run_client(rig, body) == list(range(8))
        assert streams.chunks_served == 8

    def test_stream_is_released_after_its_last_chunk(self, rig):
        # An OpenBlocks descriptor carries its own chunk count.
        env, context, streams, rpc, client_loop, server_loop = rig
        stream = _OpenStream(TARGET_REQUEST_BYTES + 1, 3)
        assert stream.n_chunks == 2
        sid = streams.register_stream(stream)

        def body(client):
            yield client.fetch_chunk(sid, 0)
            assert sid in streams._streams
            yield client.fetch_chunk(sid, 1)
            try:
                yield client.fetch_chunk(sid, 1)
            except TransportError as exc:
                return str(exc)

        assert run_client(rig, body) == f"unknown stream {sid}"

    def test_fetch_time_scales_with_chunk_size(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        small = streams.register_stream(lambda idx, n: (None, 1000))
        big = streams.register_stream(lambda idx, n: (None, 8 << 20))

        def body(client):
            t0 = client.env.now
            yield client.fetch_chunk(small, 0)
            t_small = client.env.now - t0
            t1 = client.env.now
            yield client.fetch_chunk(big, 0)
            t_big = client.env.now - t1
            return (t_small, t_big)

        t_small, t_big = run_client(rig, body)
        assert t_big > 10 * t_small


class TestClientFactory:
    def test_clients_pooled_per_address(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        factory = TransportClientFactory(context, client_loop, 1)

        def main(env):
            a = yield from factory.get_client(SocketAddress("node0", 7077))
            b = yield from factory.get_client(SocketAddress("node0", 7077))
            server_loop.stop()
            client_loop.stop()
            return a is b

        proc = env.process(main(env))
        env.run()
        assert proc.value is True


class TestFailureSurfacing:
    """Server-side failures travel the wire as real frames; client-side
    channel death fails every outstanding future instead of hanging it."""

    def test_unknown_stream_error_names_the_stream(self, rig):
        def body(client):
            try:
                yield client.fetch_chunk(123_456, 7)
            except TransportError as exc:
                return str(exc)

        msg = run_client(rig, body)
        assert "123456" in msg.replace("_", "")

    def test_invalidated_streams_report_the_reason(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        sid = streams.register_stream(lambda idx, n: (idx, 100))
        streams.invalidate_all("executor shutting down")

        def body(client):
            try:
                yield client.fetch_chunk(sid, 0)
            except TransportError as exc:
                return str(exc)

        assert "executor shutting down" in run_client(rig, body)

    def test_channel_close_fails_outstanding_futures(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        # A stream the server will never finish serving in time: close the
        # channel right after issuing the fetch, before the response lands.
        sid = streams.register_stream(lambda idx, n: (idx, 64 << 20))

        def body(client):
            fut = client.fetch_chunk(sid, 0)
            client.channel.close()
            try:
                yield fut
            except TransportError as exc:
                return str(exc)

        assert "closed" in run_client(rig, body)

    def test_pipeline_exception_fails_outstanding_futures(self, rig):
        env, context, streams, rpc, client_loop, server_loop = rig
        sid = streams.register_stream(lambda idx, n: (idx, 64 << 20))

        def body(client):
            fut = client.fetch_chunk(sid, 0)
            client.channel.pipeline.fire_exception_caught(RuntimeError("boom"))
            try:
                yield fut
            except TransportError as exc:
                return str(exc)

        assert "boom" in run_client(rig, body)


class TestServedShuffleStreams:
    """A shuffle's OpenBlocks streams are freed as their last chunk is
    served, so a finished job leaves no stream registered."""

    @pytest.mark.parametrize("transport", PER_BLOCK_TRANSPORTS)
    def test_groupby_cell_leaves_every_stream_table_empty(self, transport):
        sim = SparkSimCluster(FRONTERA, 4, transport)
        sim.launch()
        sim.run_profile(GROUP_BY.build_profile(FRONTERA, 4, 1 * GiB, fidelity=0.05))
        assert sum(ex.streams.chunks_served for ex in sim.executors) > 0
        assert [ex.streams._streams for ex in sim.executors] == [{}] * 4
        sim.shutdown()
