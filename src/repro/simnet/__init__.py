"""Discrete-event cluster/network simulator.

This package is the hardware substitute for the paper's testbeds (TACC
Frontera, TACC Stampede2 and OSU's internal IB-EDR cluster): a deterministic
virtual-time kernel, node/NIC topology, per-protocol wire cost models and a
TCP-like stream socket layer. Everything above (the MPI runtime, Netty and
the Spark engine) runs as simulation processes on this kernel.
"""

from repro.simnet.engine import EmptySchedule, SimEngine
from repro.simnet.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimError,
    Timeout,
)
from repro.simnet.interconnect import (
    DEFAULT_COST,
    FABRICS,
    IB_EDR,
    IB_HDR,
    OPA,
    PROTOCOLS,
    CostModel,
    Fabric,
    WireModel,
    loopback,
    mpi_over,
    rdma_over,
    tcp_over,
)
from repro.simnet.resources import Store
from repro.simnet.sockets import (
    ListeningSocket,
    Segment,
    SimSocket,
    SocketAddress,
    SocketError,
    SocketStack,
)
from repro.simnet.topology import LinkDown, LinkState, SimCluster, SimNode

__all__ = [
    "SimEngine",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimError",
    "Store",
    "Fabric",
    "WireModel",
    "CostModel",
    "DEFAULT_COST",
    "IB_HDR",
    "IB_EDR",
    "OPA",
    "FABRICS",
    "PROTOCOLS",
    "tcp_over",
    "rdma_over",
    "mpi_over",
    "loopback",
    "SimCluster",
    "SimNode",
    "LinkState",
    "LinkDown",
    "SocketStack",
    "SocketAddress",
    "SimSocket",
    "ListeningSocket",
    "Segment",
    "SocketError",
]
