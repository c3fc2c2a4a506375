"""Observable fidelity of the two designs: where do the bytes actually go?

The paper's key structural claims are checkable in the simulation's
network trace: in the Optimized design only ChunkFetchSuccess /
StreamResponse *bodies* ride MPI (headers and every other message stay on
the Java sockets); in the Basic design everything rides MPI.
"""

import pytest

from repro.core.endpoint import MpiEndpoint
from repro.harness.pingpong import _idle_main
from repro.mpi.runtime import RankSpec
from repro.simnet import IB_EDR, SimCluster, SimEngine
from repro.simnet.sockets import SocketAddress
from repro.spark.network import OneForOneStreamManager, RpcHandler, TransportContext
from repro.transports import make_transport
from repro.util.units import MiB


class EchoRpc(RpcHandler):
    def receive(self, client_channel, payload, reply):
        reply(payload, 128)


def build_rig(transport_name):
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=8)
    transport = make_transport(transport_name, env, cluster)
    endpoints = [None, None]
    if transport.uses_mpi:
        procs, _ = transport.mpi_world.create_processes(
            [RankSpec(main=_idle_main, node=0), RankSpec(main=_idle_main, node=1)],
            comm_name="MPI_COMM_WORLD",
        )
        endpoints = [MpiEndpoint(procs[0]), MpiEndpoint(procs[1])]
    streams = OneForOneStreamManager()
    context = TransportContext(
        transport.data_stack,
        rpc_handler=EchoRpc(),
        stream_manager=streams,
        pipeline_hook=transport.pipeline_hook,
    )
    stream_id = streams.register_stream(lambda idx, n: (None, idx))
    server_loop = transport.make_loop("srv", endpoints[0])
    client_loop = transport.make_loop("cli", endpoints[1])
    server_loop.start()
    client_loop.start()
    context.create_server(server_loop, 0, 7500)
    return env, cluster, transport, context, client_loop, endpoints, stream_id, (server_loop, client_loop)


def run_fetch(transport_name, nbytes=4 * MiB, do_rpc=False):
    (env, cluster, transport, context, client_loop,
     endpoints, stream_id, loops) = build_rig(transport_name)
    stats = {}

    def main(env):
        client = yield from context.create_client(
            client_loop, 1, SocketAddress("node0", 7500)
        )
        yield from transport.establish(client.channel, endpoints[1])
        if do_rpc:
            yield client.send_rpc({"op": "meta"}, nbytes=nbytes)
        else:
            yield client.fetch_chunk(stream_id, nbytes)
        stats["client_socket_rx"] = client.channel.socket.bytes_received
        for loop in loops:
            loop.stop()

    env.process(main(env))
    env.run()
    snap = env.metrics.snapshot()
    mpi_bytes = snap.value(f"simnet.wire.mpi/{cluster.fabric.name}.bytes")
    tcp_bytes = snap.total("simnet.wire.tcp*.bytes")
    return stats, mpi_bytes, tcp_bytes


class TestOptimizedDesign:
    def test_chunk_bodies_ride_mpi(self):
        stats, mpi_bytes, tcp_bytes = run_fetch("mpi-opt", nbytes=4 * MiB)
        # The 4 MiB body went over MPI (plus RTS/CTS control)...
        assert mpi_bytes >= 4 * MiB
        # ...while the socket carried only headers/requests/handshake.
        assert tcp_bytes < 4096

    def test_rpc_bodies_stay_on_socket(self):
        # Sec VI-E: only ChunkFetchSuccess and StreamResponse go over MPI.
        stats, mpi_bytes, tcp_bytes = run_fetch("mpi-opt", nbytes=1 * MiB, do_rpc=True)
        assert mpi_bytes < 1024  # no bulk over MPI
        assert tcp_bytes >= 1 * MiB  # the RPC payload rode TCP

    def test_small_chunk_also_split(self):
        stats, mpi_bytes, tcp_bytes = run_fetch("mpi-opt", nbytes=64 * 1024)
        assert mpi_bytes >= 64 * 1024


class TestBasicDesign:
    def test_everything_rides_mpi(self):
        stats, mpi_bytes, tcp_bytes = run_fetch("mpi-basic", nbytes=4 * MiB)
        assert mpi_bytes >= 4 * MiB
        # Requests AND responses over MPI: socket only saw the handshake.
        assert tcp_bytes < 256

    def test_rpcs_also_ride_mpi(self):
        stats, mpi_bytes, tcp_bytes = run_fetch("mpi-basic", nbytes=1 * MiB, do_rpc=True)
        assert mpi_bytes >= 1 * MiB
        assert tcp_bytes < 256


class TestVanilla:
    def test_everything_rides_tcp(self):
        stats, mpi_bytes, tcp_bytes = run_fetch("nio", nbytes=4 * MiB)
        assert mpi_bytes == 0
        assert tcp_bytes >= 4 * MiB
