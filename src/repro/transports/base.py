"""The pluggable transport abstraction.

One :class:`Transport` instance describes how a whole Spark cluster
communicates: which socket stacks exist, how channel pipelines are
augmented, which event-loop flavour roles run, and what performance taxes
the design carries (the Basic design's polling core / compute
interference). The four concrete transports mirror the paper's evaluation
matrix: Vanilla (NIO/IPoIB), RDMA-Spark, MPI4Spark-Basic and
MPI4Spark-Optimized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.netty.channel import Channel
from repro.netty.eventloop import EventLoop
from repro.simnet.interconnect import (
    DEFAULT_COST, CostModel, Fabric, tcp_loaded_over, tcp_over,
)
from repro.simnet.sockets import SocketStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import MpiEndpoint
    from repro.mpi.runtime import MPIWorld
    from repro.simnet.engine import SimEngine
    from repro.simnet.topology import SimCluster


class Transport:
    """Base transport: vanilla Netty NIO over TCP (IPoIB)."""

    name = "nio"
    uses_mpi = False
    # Cores permanently burned per executor by communication threads.
    polling_tax_cores = 0
    # Multiplier on task compute time from communication interference
    # (cache pollution / scheduler churn from busy-polling threads); the
    # Basic design sets its own from the cost model.
    compute_inflation = 1.0
    # The shuffle-read fetch phase is one collective exchange per stage
    # boundary instead of per-block ChunkFetch requests.
    collective_shuffle = False
    # MPI messages are discovered by busy-polling (selectNow + Iprobe), so
    # matching dwell is a polling tax rather than plain queueing.
    polls_for_messages = False

    def __init__(
        self,
        env: "SimEngine",
        cluster: "SimCluster",
        loaded: bool = False,
        fault_mode: str = "abort",
        cost: CostModel = DEFAULT_COST,
    ) -> None:
        """``loaded=True`` selects the under-full-CPU-load wire models for
        CPU-dependent stacks (TCP/IPoIB, UCR) — the regime of the end-to-end
        figures; idle-node microbenchmarks (Fig 8) use the defaults.

        ``fault_mode`` only matters for the MPI transports: how the MPI
        world reacts to rank death ("abort" = MPI_ERRORS_ARE_FATAL,
        "shrink" = ULFM-style survival). Socket transports ignore it —
        TCP connections fail independently by nature.

        ``cost`` is the cluster's :class:`CostModel`; the MPI transports
        read their rendezvous threshold and Basic's polling costs from it."""
        self.env = env
        self.cluster = cluster
        self.loaded = loaded
        self.fault_mode = fault_mode
        self.cost = cost
        self.fabric: Fabric = cluster.fabric
        tcp_model = tcp_loaded_over(self.fabric) if loaded else tcp_over(self.fabric)
        self.data_stack = SocketStack(env, cluster, tcp_model)
        self.mpi_world: "MPIWorld | None" = None

    # -- role wiring -----------------------------------------------------------
    def make_loop(self, name: str, endpoint: "MpiEndpoint | None" = None) -> EventLoop:
        loop = EventLoop(self.env, name)
        loop.mpi_endpoint = endpoint
        return loop

    def pipeline_hook(self, channel: Channel, is_server: bool) -> None:
        """Augment a data-plane channel pipeline (no-op for NIO)."""

    def establish(self, channel: Channel, endpoint: "MpiEndpoint | None") -> Generator:
        """Post-connect setup on a client data channel (no-op for NIO)."""
        return
        yield  # pragma: no cover - makes this a generator
