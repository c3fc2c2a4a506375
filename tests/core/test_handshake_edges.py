"""Edge cases of connection establishment: duplicate registration, dead
peers, and channel teardown releasing the rank mapping."""

import pytest

from repro.core.endpoint import MpiEndpoint
from repro.core.handshake import ATTR_BINDING, ATTR_DONE, HandshakeError
from repro.mpi.runtime import RankSpec
from repro.simnet import IB_EDR, SimCluster, SimEngine
from repro.simnet.sockets import SocketAddress
from repro.spark.network import OneForOneStreamManager, RpcHandler, TransportContext
from repro.transports import make_transport

PORT = 7337


def _idle_main(proc):
    yield proc.env.timeout(0)


def make_rig(transport_name="mpi-opt", fault_mode="abort"):
    """Two-node MPI transport rig: server rank on node 0, client on node 1."""
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=4)
    transport = make_transport(transport_name, env, cluster, fault_mode=fault_mode)
    procs, _ = transport.mpi_world.create_processes(
        [RankSpec(main=_idle_main, node=0, name="hs-server"),
         RankSpec(main=_idle_main, node=1, name="hs-client")],
        comm_name="MPI_COMM_WORLD",
    )
    server_ep, client_ep = MpiEndpoint(procs[0]), MpiEndpoint(procs[1])
    context = TransportContext(
        transport.data_stack,
        stream_manager=OneForOneStreamManager(),
        pipeline_hook=transport.pipeline_hook,
    )
    server_loop = transport.make_loop("hs-server-loop", server_ep)
    client_loop = transport.make_loop("hs-client-loop", client_ep)
    server_loop.start()
    client_loop.start()
    context.create_server(server_loop, 0, PORT)
    return env, transport, context, server_ep, client_ep, server_loop, client_loop


def drive(env, gen):
    """Run `gen` as a sim process and return its result."""
    proc = env.process(gen)
    env.run(until=env.timeout(5.0))
    assert proc.triggered, "client process never finished"
    return proc.value


class TestDuplicateRegistration:
    def test_reregistering_channel_raises(self):
        env, transport, context, _, client_ep, _, client_loop = make_rig()

        def main():
            client = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            with pytest.raises(ValueError, match="already registered"):
                client_loop.register(client.channel)
            return "ok"

        assert drive(env, main()) == "ok"


class TestDeadRankHandshake:
    @pytest.mark.parametrize("transport_name", ["mpi-opt", "mpi-basic"])
    def test_handshake_against_dead_rank_fails(self, transport_name):
        # Shrink mode: killing the server rank must not take the client down.
        env, transport, context, server_ep, client_ep, _, client_loop = make_rig(
            transport_name, fault_mode="shrink"
        )

        def main():
            yield env.timeout(0.001)  # let the ranks start
            transport.mpi_world.kill_process(
                server_ep.proc.gid, reason="injected for handshake test"
            )
            client = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            try:
                yield from transport.establish(client.channel, client_ep)
            except HandshakeError as exc:
                return str(exc)
            return "established"

        outcome = drive(env, main())
        assert "closed before rank handshake" in outcome


class TestTeardownReleasesMapping:
    def test_close_releases_binding_and_prunes_loop(self):
        env, transport, context, _, client_ep, _, client_loop = make_rig(
            "mpi-basic"
        )
        captured = {}

        def main():
            client = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            yield from transport.establish(client.channel, client_ep)
            captured["channel"] = client.channel
            assert ATTR_BINDING in client.channel.attributes
            assert client.channel in client_loop.mpi_channels
            client.channel.close()
            yield env.timeout(0.1)  # let teardown propagate
            return "closed"

        assert drive(env, main()) == "closed"
        channel = captured["channel"]
        assert ATTR_BINDING not in channel.attributes
        assert channel not in client_loop.mpi_channels
        # Its poll row is gone, and so is the watcher on the row's bucket.
        assert client_loop._poll_cache == []
        assert client_ep.proc.matching.watchers == {}

    def test_handshake_event_fails_rather_than_hangs_on_teardown(self):
        env, transport, context, _, client_ep, _, client_loop = make_rig("mpi-opt")

        def main():
            client = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            # Close before the handshake reply can arrive: the in-flight
            # handshake must complete in error, not hang its waiter.
            establish = env.process(
                transport.establish(client.channel, client_ep), name="est"
            )
            yield env.timeout(0)  # let it send the announcement
            client.channel.close()
            try:
                yield establish
            except HandshakeError as exc:
                return str(exc)
            return "established"

        outcome = drive(env, main())
        assert "closed before rank handshake" in outcome


class _EchoRpc(RpcHandler):
    def receive(self, client_channel, payload, reply):
        reply(payload, 16)


class TestChannelClosedMidRound:
    def test_row_closed_by_an_earlier_rows_read_is_skipped(self):
        # Regression: the Basic loop walks a snapshot of its poll rows. A
        # read on row A that closes row B's channel unbinds B at once
        # (channel_inactive), so reaching B's stale row must skip it, not
        # remove it from mpi_channels a second time (ValueError).
        env, transport, context, _, client_ep, _, client_loop = make_rig(
            "mpi-basic"
        )
        context.rpc_handler = _EchoRpc()

        def main():
            a = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            yield from transport.establish(a.channel, client_ep)
            b = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            yield from transport.establish(b.channel, client_ep)
            assert client_loop.mpi_channels == [a.channel, b.channel]
            yield env.timeout(0.01)  # both rows in the loop's snapshot

            fire_read = a.channel.pipeline.fire_channel_read

            def read_then_close_b(msg):
                b.channel.close()
                fire_read(msg)

            a.channel.pipeline.fire_channel_read = read_then_close_b
            first = yield a.send_rpc("ping", 16)
            del a.channel.pipeline.fire_channel_read
            second = yield a.send_rpc("again", 16)
            return first, second, list(client_loop.mpi_channels), a.channel, b.channel

        first, second, bound, a_channel, b_channel = drive(env, main())
        assert (first, second) == ("ping", "again")
        assert bound == [a_channel]
        assert not b_channel.active


class TestDeathWakesTheParkedPollLoop:
    @pytest.mark.parametrize(
        "fault_mode,victim", [("shrink", "own rank"), ("abort", "peer rank")]
    )
    def test_parked_loop_runs_one_more_round(self, fault_mode, victim):
        # A Basic loop parked on its poll rows is woken through its rank's
        # probe-bucket watchers when the rank dies (shrink) or the world
        # aborts (here by the peer's death), runs one more poll round, finds
        # nothing and parks again.
        env, transport, context, server_ep, client_ep, _, client_loop = make_rig(
            "mpi-basic", fault_mode=fault_mode
        )
        rounds = env.metrics.counter(f"netty.loop.{client_loop.name}.poll_rounds")
        selector = client_loop.selector

        def main():
            client = yield from context.create_client(
                client_loop, 1, SocketAddress("node0", PORT)
            )
            yield from transport.establish(client.channel, client_ep)
            yield env.timeout(0.01)  # idle: the loop parks on its one row
            return client.channel

        channel = drive(env, main())
        watchers = client_ep.proc.matching.watchers
        assert client_loop.mpi_channels == [channel]
        assert list(watchers.values()) == [selector._park_signal]
        assert selector._park is not None
        parked_at = rounds.value
        dead = client_ep if victim == "own rank" else server_ep
        transport.mpi_world.kill_process(dead.proc.gid, reason="injected")
        assert selector._park is None  # woken inside the kill
        env.run(until=env.now + 1.0)
        assert rounds.value == parked_at + 1
        assert selector._park is not None
