"""MPI4Spark core: the paper's contribution.

* channel ↔ MPI-rank mapping established at connection time
  (:mod:`repro.core.handshake`, Sec. VI-B),
* communicator-kind resolution per channel (:mod:`repro.core.endpoint`),
* the MPI-based Netty write/read paths for both designs
  (:mod:`repro.core.mpi_netty`, Secs. VI-D/VI-E),
* the DPM launch flow that brings a Spark cluster up under ``mpiexec``
  (:mod:`repro.core.launcher`, Sec. V / Fig. 3).
"""

from repro.core.endpoint import (
    COMM_KIND_DPM,
    COMM_KIND_INTER,
    COMM_KIND_WORLD,
    CommBinding,
    MpiEndpoint,
)
from repro.core.handshake import (
    HANDSHAKE_WIRE_BYTES,
    MpiHandshakeHandler,
    RankAnnouncement,
    initiate_handshake,
)
from repro.core.mpi_netty import (
    MpiBasicEventLoop,
    MpiBodyReceiveHandler,
    NotifyingHandshakeHandler,
    basic_transport_write,
    optimized_transport_write,
)

__all__ = [
    "MpiEndpoint",
    "CommBinding",
    "COMM_KIND_WORLD",
    "COMM_KIND_DPM",
    "COMM_KIND_INTER",
    "RankAnnouncement",
    "MpiHandshakeHandler",
    "NotifyingHandshakeHandler",
    "initiate_handshake",
    "HANDSHAKE_WIRE_BYTES",
    "MpiBodyReceiveHandler",
    "MpiBasicEventLoop",
    "optimized_transport_write",
    "basic_transport_write",
]
