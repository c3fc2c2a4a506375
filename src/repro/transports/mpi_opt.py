"""MPI4Spark-Optimized: shuffle bodies over MPI, headers over sockets.

The paper's headline design (Sec. VI-E): only ``ChunkFetchSuccess`` and
``StreamResponse`` bodies ride MPI point-to-point; header parsing inside
ChannelHandlers triggers the matching ``MPI_Recv``. No polling — the
selector loop is untouched, so no CPU tax.
"""

from __future__ import annotations

from types import MethodType
from typing import Generator

from repro.core.handshake import MpiHandshakeHandler, ensure_handshake
from repro.core.mpi_netty import MpiBodyReceiveHandler, optimized_transport_write
from repro.mpi.runtime import MPIWorld
from repro.netty.channel import Channel
from repro.netty.eventloop import EventLoop
from repro.simnet.interconnect import mpi_over
from repro.transports.base import Transport


class MpiOptimizedTransport(Transport):
    """MPI4Spark-Optimized (the design used throughout the paper's eval)."""

    name = "mpi-opt"
    uses_mpi = True

    def __init__(self, env, cluster, **kwargs) -> None:
        super().__init__(env, cluster, **kwargs)
        # MPI is kernel-bypass + zero-copy: no loaded-CPU degradation.
        self.mpi_world = MPIWorld(
            env, cluster, mpi_over(self.fabric, self.cost), fault_mode=self.fault_mode
        )

    def pipeline_hook(self, channel: Channel, is_server: bool) -> None:
        # Order matters (paper Fig. 7): handshake interception first, then
        # body reception on header parse, then the normal codec.
        channel.pipeline.add_first("mpiBodyRecv", MpiBodyReceiveHandler.INSTANCE)
        channel.pipeline.add_first("mpiHandshake", MpiHandshakeHandler.INSTANCE)
        channel._transport_write = MethodType(optimized_transport_write, channel)

    def establish(self, channel: Channel, endpoint) -> Generator:
        if endpoint is None:
            raise RuntimeError("MPI transport requires an MpiEndpoint per role")
        yield from ensure_handshake(channel, endpoint)
