"""Groups and communicators (intra- and inter-).

A :class:`Comm` here is a per-process *handle* onto a shared
:class:`CommDescriptor` — mirroring real MPI, where every process holds its
own handle to a communicator whose context id is agreed cluster-wide.
Matching is scoped by the descriptor's context ids: one for point-to-point
traffic, one for collectives, so user sends can never be confused with
collective internals (this is how real MPI implementations do it).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.mpi import collectives as _coll
from repro.mpi.errors import CommError, TagError
from repro.mpi.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MPIProcess

MAX_TAG = 1 << 24  # user tags live in [0, MAX_TAG)


class Group:
    """An ordered set of process gids; rank = index."""

    def __init__(self, gids: Sequence[int]) -> None:
        if len(set(gids)) != len(gids):
            raise CommError(f"duplicate gids in group: {gids}")
        self._gids = tuple(gids)
        self._rank_of = {gid: i for i, gid in enumerate(self._gids)}

    @property
    def size(self) -> int:
        return len(self._gids)

    def gid_of(self, rank: int) -> int:
        if not 0 <= rank < len(self._gids):
            raise CommError(f"rank {rank} out of range for group of {len(self._gids)}")
        return self._gids[rank]

    def rank_of(self, gid: int) -> int:
        try:
            return self._rank_of[gid]
        except KeyError:
            raise CommError(f"gid {gid} not in group") from None

    def __contains__(self, gid: int) -> bool:
        return gid in self._rank_of

    def __iter__(self):
        return iter(self._gids)


class CommDescriptor:
    """Cluster-wide identity of a communicator (shared across handles)."""

    _ctx_alloc = itertools.count(100, step=2)

    def __init__(
        self,
        name: str,
        local_group: Group,
        remote_group: Group | None = None,
        ctx: tuple[int, int] | None = None,
    ) -> None:
        self.name = name
        self.local_group = local_group
        self.remote_group = remote_group  # None for intracommunicators
        if ctx is None:
            self.ctx_pt2pt = next(CommDescriptor._ctx_alloc)
            self.ctx_coll = self.ctx_pt2pt + 1
        else:
            # Reconstructing a descriptor whose identity was agreed
            # elsewhere (DPM intercomm establishment).
            self.ctx_pt2pt, self.ctx_coll = ctx

    def mirrored(self) -> "CommDescriptor":
        """The same intercommunicator seen from the other group's side."""
        if self.remote_group is None:
            raise CommError("mirrored() only applies to intercommunicators")
        return CommDescriptor(
            self.name,
            local_group=self.remote_group,
            remote_group=self.local_group,
            ctx=(self.ctx_pt2pt, self.ctx_coll),
        )


class Comm:
    """Per-process communicator handle. Base for intra/inter variants.

    Point-to-point calls name one peer rank and one tag in
    ``[0, MAX_TAG)``, and a send's ``nbytes`` is ``None`` or at least 0,
    all checked before anything is posted; a blocking call is its
    nonblocking twin followed by :meth:`Request.wait`.
    """

    def __init__(self, proc: "MPIProcess", desc: CommDescriptor) -> None:
        self.proc = proc
        self.desc = desc
        self._coll_seq = 0  # collective-call counter (same order on all ranks)
        # Let the failure machinery map (rank, context) back to a gid.
        proc._register_comm(desc)

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.desc.name

    @property
    def rank(self) -> int:
        return self.desc.local_group.rank_of(self.proc.gid)

    @property
    def size(self) -> int:
        return self.desc.local_group.size

    def _dest_group(self) -> Group:
        """Group that ``dest``/``source`` ranks refer to."""
        return self.desc.remote_group or self.desc.local_group

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < MAX_TAG:
            raise TagError(f"tag {tag} outside [0, {MAX_TAG})")

    # -- point-to-point ----------------------------------------------------
    def send(
        self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> Generator:
        """Blocking send (generator): :meth:`isend`, then wait for it. Eager
        completes after the local overhead, rendezvous once the receiver
        has pulled the payload. ``nbytes`` overrides the size model."""
        yield from self.isend(obj, dest, tag, nbytes).wait()

    def isend(
        self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> Request:
        """Nonblocking send; returns a :class:`Request`."""
        self._check_tag(tag)
        if nbytes is not None and nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        dst_gid = self._dest_group().gid_of(dest)
        return self.proc._isend(
            dst_gid, self.rank, self.desc.ctx_pt2pt, tag, obj, nbytes
        )

    def recv(self, source: int, tag: int) -> Generator:
        """Blocking receive (generator) returning the payload."""
        payload = yield from self.irecv(source, tag).wait()
        return payload

    def irecv(self, source: int, tag: int) -> Request:
        """Nonblocking receive from rank ``source`` with tag ``tag``; the
        completed request's :attr:`~Request.status` holds the size."""
        self._check_tag(tag)
        self._dest_group().gid_of(source)
        return self.proc._irecv(source, tag, self.desc.ctx_pt2pt)

    # -- collective internals ---------------------------------------------
    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return self._coll_seq % MAX_TAG

    def _coll_isend(self, obj: Any, dest: int, tag: int) -> Request:
        dst_gid = self._dest_group().gid_of(dest)
        return self.proc._isend(dst_gid, self.rank, self.desc.ctx_coll, tag, obj, None)

    def _coll_recv(self, source: int, tag: int) -> Generator:
        req = self.proc._irecv(source, tag, self.desc.ctx_coll)
        payload = yield from req.wait()
        return payload


class Intracomm(Comm):
    """Communicator over a single group (e.g. MPI_COMM_WORLD, DPM_COMM)."""

    # -- collectives (all generators) ---------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Generator:
        result = yield from _coll.bcast(self, obj, root)
        return result

    def allgather(self, obj: Any) -> Generator:
        result = yield from _coll.allgather(self, obj)
        return result

    def spawn_multiple(self, specs, root: int = 0) -> Generator:
        """Launch child processes with DPM (MPI_Comm_spawn_multiple).

        Collective over this communicator; returns the parent-side
        :class:`Intercomm`. See :mod:`repro.mpi.dpm`.
        """
        from repro.mpi import dpm

        intercomm = yield from dpm.spawn_multiple(self, specs, root)
        return intercomm


class Intercomm(Comm):
    """Communicator bridging two disjoint groups (DPM parent/child).

    ``dest``/``source`` ranks refer to the *remote* group; ``rank``/``size``
    to the local group — matching the MPI standard.
    """

    @property
    def remote_size(self) -> int:
        assert self.desc.remote_group is not None
        return self.desc.remote_group.size
