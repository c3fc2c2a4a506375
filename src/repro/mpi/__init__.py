"""A from-scratch MPI runtime over the simulated cluster.

This package substitutes for MVAPICH2-X plus the paper's custom Java
bindings: communicators (intra + inter), exact-spec tag matching with
unexpected queues and iprobe, point-to-point with an eager/rendezvous
protocol switch (one nonblocking send path; the blocking calls wait on
it), binomial-tree ``bcast`` and ring ``allgather`` (DPM spawn, the
launch path), and Dynamic Process Management (``spawn_multiple``) —
exactly the MPI surface MPI4Spark uses — plus the ``alltoallv`` of the
collective shuffle transport (``mpi-coll``). Every receive and probe
names one source rank and one tag: MPI4Spark never matches on a wildcard
source or tag, so the runtime has none.
"""

from repro.mpi.communicator import (
    MAX_TAG,
    Comm,
    CommDescriptor,
    Group,
    Intercomm,
    Intracomm,
)
from repro.mpi.dpm import SPAWN_COST_S, SpawnSpec
from repro.mpi.envelope import RTS_BYTES, Envelope, Protocol
from repro.mpi.errors import CommError, MPIError, SpawnError, TagError
from repro.mpi.matching import MatchingEngine
from repro.mpi.request import Request
from repro.mpi.runtime import MPIProcess, MPIWorld, RankSpec
from repro.mpi.status import Status

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
    "Envelope",
    "Protocol",
    "RTS_BYTES",
    "MatchingEngine",
    "MPIError",
    "CommError",
    "TagError",
    "SpawnError",
]
