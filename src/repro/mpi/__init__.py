"""A from-scratch MPI runtime over the simulated cluster.

This package substitutes for MVAPICH2-X plus the paper's custom Java
bindings: communicators (intra + inter), tag matching with unexpected
queues and iprobe, blocking/nonblocking point-to-point with an
eager/rendezvous protocol switch, binomial-tree ``bcast`` and ring
``allgather`` (DPM spawn, the launch path), and Dynamic Process Management
(``spawn_multiple``) — exactly the MPI surface MPI4Spark uses — plus the
``alltoallv`` of the collective shuffle transport (``mpi-coll``).
"""

from repro.mpi.communicator import (
    MAX_TAG,
    Comm,
    CommDescriptor,
    Group,
    Intercomm,
    Intracomm,
)
from repro.mpi.datatypes import BASIC_TYPES, BYTE, DOUBLE, INT, LONG, Datatype
from repro.mpi.dpm import SPAWN_COST_S, SpawnSpec
from repro.mpi.envelope import RTS_BYTES, Envelope, Protocol
from repro.mpi.errors import CommError, MPIError, SpawnError, TagError
from repro.mpi.matching import MatchingEngine
from repro.mpi.request import Request
from repro.mpi.runtime import MPIProcess, MPIWorld, RankSpec
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status

__all__ = [
    "MPIWorld",
    "MPIProcess",
    "RankSpec",
    "SpawnSpec",
    "SPAWN_COST_S",
    "Comm",
    "Intracomm",
    "Intercomm",
    "CommDescriptor",
    "Group",
    "MAX_TAG",
    "Request",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "Protocol",
    "RTS_BYTES",
    "MatchingEngine",
    "Datatype",
    "BYTE",
    "INT",
    "LONG",
    "DOUBLE",
    "BASIC_TYPES",
    "MPIError",
    "CommError",
    "TagError",
    "SpawnError",
]
