"""Netty-level ping-pong latency benchmark (paper Fig. 8).

Measures, per message size, the average fetch round-trip through the full
channel/pipeline/codec stack on a two-node cluster — Netty's NIO transport
vs. the Netty+MPI transport. The paper ran this on the internal IB-EDR
cluster and reports Netty+MPI speedups up to ~9x at 4 MB.

Methodology: a client fetches S-byte chunks from a server; latency is
RTT/2 (OSU-style). The request message is tiny, so large-message latency
is dominated by the S-byte response — the term the transports differ on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.endpoint import MpiEndpoint
from repro.mpi.runtime import RankSpec
from repro.netty.eventloop import EventLoop
from repro.simnet.engine import SimEngine
from repro.simnet.interconnect import IB_EDR, Fabric
from repro.simnet.sockets import SocketAddress, SocketStack
from repro.simnet.topology import SimCluster
from repro.spark.network import OneForOneStreamManager, TransportContext
from repro.transports import make_transport

PORT = 7337


@dataclass
class PingPongResult:
    """Latency per message size for one transport."""

    transport: str
    fabric: str
    latency_s: dict[int, float]  # message size -> seconds


def _idle_main(proc):
    """MPI ranks for the ping-pong only serve the matching engine."""
    yield proc.env.timeout(0)


def run_pingpong(
    transport_name: str,
    sizes: list[int],
    fabric: Fabric = IB_EDR,
    iterations: int = 4,
    warmup: int = 1,
) -> PingPongResult:
    """Run the ping-pong for one transport; returns per-size latency."""
    env = SimEngine()
    cluster = SimCluster(env, fabric, n_nodes=2, cores_per_node=28)
    transport = make_transport(transport_name, env, cluster)

    # MPI transports: one rank per endpoint (server=0 on node0, client=1).
    server_ep = client_ep = None
    if transport.uses_mpi:
        assert transport.mpi_world is not None
        procs, _ = transport.mpi_world.create_processes(
            [RankSpec(main=_idle_main, node=0, name="pp-server"),
             RankSpec(main=_idle_main, node=1, name="pp-client")],
            comm_name="MPI_COMM_WORLD",
        )
        server_ep = MpiEndpoint(procs[0])
        client_ep = MpiEndpoint(procs[1])

    # Server: a stream whose chunk_index encodes the requested size.
    streams = OneForOneStreamManager()
    context = TransportContext(
        transport.data_stack,
        stream_manager=streams,
        pipeline_hook=transport.pipeline_hook,
    )
    stream_id = streams.register_stream(lambda idx, n: (None, idx))

    server_loop = transport.make_loop("pp-server-loop", server_ep)
    client_loop = transport.make_loop("pp-client-loop", client_ep)
    server_loop.start()
    client_loop.start()
    context.create_server(server_loop, 0, PORT)

    latencies: dict[int, float] = {}

    def client_main(env):
        client = yield from context.create_client(
            client_loop, 1, SocketAddress("node0", PORT)
        )
        yield from transport.establish(client.channel, client_ep)
        for size in sizes:
            # warmup + timed iterations
            for _ in range(warmup):
                yield client.fetch_chunk(stream_id, size)
            t0 = env.now
            for _ in range(iterations):
                yield client.fetch_chunk(stream_id, size)
            latencies[size] = (env.now - t0) / iterations / 2.0  # RTT/2
        server_loop.stop()
        client_loop.stop()

    env.process(client_main(env))
    env.run()
    return PingPongResult(
        transport=transport_name,
        fabric=fabric.name,
        latency_s=dict(latencies),
    )
