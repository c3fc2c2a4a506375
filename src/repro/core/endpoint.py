"""MPI identity of a Spark JVM process and communicator resolution.

Every Spark-cluster entity (master, driver, worker, executor) is one MPI
process in MPI4Spark. An entity holds several communicators — the wrapper
world (``MPI_COMM_WORLD``), the executors' ``DPM_COMM``, and the
parent/child intercommunicator — and each Netty channel must be bound to
*the right one*: "each Channel ... was mapped to both an MPI process rank
and a communicator type" (paper Sec. VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mpi.communicator import Comm
from repro.mpi.errors import CommError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MPIProcess

# Communicator-kind byte exchanged during connection establishment
# (paper: "communicator types are signified using single bytes").
COMM_KIND_WORLD = 0  # wrapper MPI_COMM_WORLD (master/driver/workers)
COMM_KIND_DPM = 1  # DPM_COMM (executor <-> executor)
COMM_KIND_INTER = 2  # parent <-> child intercommunicator

KIND_NAMES = {COMM_KIND_WORLD: "WORLD", COMM_KIND_DPM: "DPM", COMM_KIND_INTER: "INTER"}


@dataclass(slots=True)
class CommBinding:
    """A channel's resolved MPI route."""

    comm: Comm
    kind: int
    peer_gid: int
    peer_rank: int  # rank to address/match the peer by, within `comm`
    # The point-to-point context of `comm`; a communicator's descriptor
    # never changes, so it is read once here.
    context_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.context_id = self.comm.desc.ctx_pt2pt


class MpiEndpoint:
    """One JVM's MPI process plus the communicators it can reach peers on."""

    def __init__(self, proc: "MPIProcess") -> None:
        self.proc = proc

    def _candidate_comms(self) -> list[tuple[Comm, int]]:
        out: list[tuple[Comm, int]] = []
        cw = self.proc.comm_world
        if cw is not None:
            kind = COMM_KIND_DPM if cw.name == "DPM_COMM" else COMM_KIND_WORLD
            out.append((cw, kind))
        pc = self.proc.parent_comm
        if pc is not None:
            out.append((pc, COMM_KIND_INTER))
        return out

    def resolve(self, peer_gid: int) -> CommBinding:
        """Find the communicator (and the peer's rank on it) reaching ``peer_gid``."""
        for comm, kind in self._candidate_comms():
            remote = comm.desc.remote_group
            if remote is not None:
                if peer_gid in remote:
                    return CommBinding(comm, COMM_KIND_INTER, peer_gid, remote.rank_of(peer_gid))
            elif peer_gid in comm.desc.local_group:
                return CommBinding(comm, kind, peer_gid, comm.desc.local_group.rank_of(peer_gid))
        raise CommError(
            f"{self.proc.name} shares no communicator with gid {peer_gid}"
        )
