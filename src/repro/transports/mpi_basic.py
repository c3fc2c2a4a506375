"""MPI4Spark-Basic: all messages over MPI, selector loop polls MPI_Iprobe.

The paper's first design (Sec. VI-D): the blocking ``select`` becomes a
non-blocking ``selectNow``, every iteration additionally ``MPI_Iprobe``-s
for matching sends, and *all* Spark message types go over MPI. The
constant polling consumes CPU and starves compute tasks — which Fig. 9
quantifies and which this class models through two taxes:

* ``polling_tax_cores = 4`` — the spinning selector threads (shuffle
  client + server pools) permanently occupy cores on the executor;
* ``compute_inflation`` — residual interference (cache pollution and
  scheduler churn from a hot spinning thread sharing the socket) on task
  compute time: the cost model's ``basic_compute_inflation`` (1.3 by
  default), calibrated so Fig-9's Basic-vs-Optimized gap lands near the
  paper's.
"""

from __future__ import annotations

from types import MethodType
from typing import Generator

from repro.core.handshake import ensure_handshake
from repro.core.mpi_netty import (
    MpiBasicEventLoop,
    NotifyingHandshakeHandler,
    basic_transport_write,
)
from repro.mpi.runtime import MPIWorld
from repro.netty.channel import Channel
from repro.simnet.interconnect import mpi_over
from repro.transports.base import Transport


class MpiBasicTransport(Transport):
    """MPI4Spark-Basic (evaluated in Fig. 9, then abandoned)."""

    name = "mpi-basic"
    uses_mpi = True
    polling_tax_cores = 4
    polls_for_messages = True

    def __init__(self, env, cluster, **kwargs) -> None:
        super().__init__(env, cluster, **kwargs)
        self.compute_inflation = self.cost.basic_compute_inflation
        self.mpi_world = MPIWorld(
            env, cluster, mpi_over(self.fabric, self.cost), fault_mode=self.fault_mode
        )

    def make_loop(self, name: str, endpoint=None) -> MpiBasicEventLoop:
        loop = MpiBasicEventLoop(self.env, name, self.cost)
        loop.mpi_endpoint = endpoint
        return loop

    def pipeline_hook(self, channel: Channel, is_server: bool) -> None:
        channel.pipeline.add_first("mpiHandshake", NotifyingHandshakeHandler.INSTANCE)
        channel._transport_write = MethodType(basic_transport_write, channel)

    def establish(self, channel: Channel, endpoint) -> Generator:
        if endpoint is None:
            raise RuntimeError("MPI transport requires an MpiEndpoint per role")
        yield from ensure_handshake(channel, endpoint)
        loop = channel.event_loop
        hook = getattr(loop, "on_mpi_channel_bound", None)
        if hook is not None:
            hook(channel)
