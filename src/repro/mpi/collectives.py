"""The three collectives the reproduction uses, over point-to-point messages.

Implementing collectives on top of the same timed pt2pt layer (instead of
closed-form cost functions) means collective timing automatically reflects
message sizes, tree depth and NIC contention — the paper's launch path uses
``MPI_Allgather`` across workers, so this matters for the Fig-3 flow.

Algorithms (standard choices, cf. MPICH/MVAPICH):

* bcast      — binomial tree (DPM spawn agrees child gids and context ids)
* allgather  — ring, n-1 steps (the launch path's executor exchange)
* alltoallv  — shifted pairwise exchange with per-peer payload sizes
  (the ``mpi-coll`` shuffle transport)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.mpi.errors import CommError, MPIError, WorldAbortedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Intracomm


def bcast(comm: "Intracomm", obj: Any, root: int) -> Generator:
    """Binomial-tree broadcast; every rank returns the root's object."""
    tag = comm._next_coll_tag()
    rank, size = comm.rank, comm.size
    if not 0 <= root < size:
        raise CommError(f"bcast root {root} out of range")
    if size == 1:
        return obj
    vrank = (rank - root) % size  # virtual rank with root at 0
    value = obj if rank == root else None

    # Receive from parent (highest set bit of vrank).
    if vrank != 0:
        mask = 1
        while mask <= vrank:
            mask <<= 1
        mask >>= 1
        parent = ((vrank - mask) + root) % size
        value = yield from comm._coll_recv(parent, tag)

    # Forward to children.
    mask = 1
    while mask <= vrank:
        mask <<= 1
    reqs = []
    while mask < size:
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            reqs.append(comm._coll_isend(value, child, tag))
        mask <<= 1
    for req in reqs:
        yield from req.wait()
    return value


def allgather(comm: "Intracomm", obj: Any) -> Generator:
    """Ring allgather; every rank returns the rank-ordered list."""
    tag = comm._next_coll_tag()
    rank, size = comm.rank, comm.size
    out: list[Any] = [None] * size
    out[rank] = obj
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Step s forwards the item that originated at rank - s.
    for s in range(size - 1):
        send_idx = (rank - s) % size
        sreq = comm._coll_isend((send_idx, out[send_idx]), right, tag)
        src_idx, value = yield from comm._coll_recv(left, tag)
        out[src_idx] = value
        yield from sreq.wait()
    return out


def alltoallv(
    comm: "Intracomm",
    objs: Sequence[Any],
    nbytes: Sequence[int] | None = None,
    tag: int | None = None,
    trace_parent: Any = None,
    ranks: Sequence[int] | None = None,
) -> Generator:
    """Variable-sized shifted pairwise exchange (MPI_Alltoallv).

    ``objs`` (and the optional per-slot ``nbytes`` size overrides) are
    indexed by communicator rank and must have exactly ``comm.size``
    entries.  Zero-size slots are still exchanged as zero-byte messages,
    so the round schedule — round ``s`` pairs ``dst=(me+s)%k`` with
    ``src=(me-s)%k`` over the participating rank list — is a pure
    function of ``(ranks, size)``, never of payload sizes; figure rows
    stay seed-reproducible no matter how skewed the traffic matrix is.
    The self slot is delivered directly (``out[rank] is objs[rank]``)
    before any wire traffic.

    ``ranks`` names the participating subset (default: every rank) and
    must be identical on every caller — the ULFM-style shrunken schedule
    the collective shuffle transport uses for multi-tenant executor
    subsets and after rank failures.  ``tag`` pins the matching tag
    explicitly so concurrent exchanges on one communicator cannot
    cross-match; by default it draws from the per-handle collective
    sequence (which then must advance identically on every rank).

    ``trace_parent`` threads causal tracing through the rounds: each
    per-peer send gets a child span recorded via ``causal.send`` and
    carried on the envelope, so the matching engine's ``mpi.match``
    closes it in the flight recording.  Tracing never schedules —
    traced and untraced runs are byte-identical in time.

    Fault semantics: a participant dying mid-exchange fails this call on
    every surviving rank with the first error observed — but only after
    the full round schedule has been driven, so surviving pairs still
    exchange and nobody hangs waiting for a peer that bailed out early.
    A world abort re-raises immediately (every pending op fails anyway).
    """
    from repro.util.serialization import sizeof

    rank, size = comm.rank, comm.size
    if len(objs) != size:
        raise CommError(f"alltoallv needs exactly {size} items, got {len(objs)}")
    if nbytes is not None and len(nbytes) != size:
        raise CommError(
            f"alltoallv nbytes needs exactly {size} entries, got {len(nbytes)}"
        )
    if ranks is None:
        ranks = range(size)
    ranks = list(ranks)
    if len(set(ranks)) != len(ranks):
        raise CommError(f"alltoallv ranks contains duplicates: {ranks}")
    if any(not 0 <= r < size for r in ranks):
        raise CommError(f"alltoallv ranks out of range for size {size}: {ranks}")
    try:
        me = ranks.index(rank)
    except ValueError:
        raise CommError(
            f"alltoallv caller rank {rank} not in participating ranks {ranks}"
        ) from None
    if tag is None:
        tag = comm._next_coll_tag()
    causal = comm.proc.env.causal
    group = comm._dest_group()
    out: list[Any] = [None] * size
    out[rank] = objs[rank]
    k = len(ranks)
    first_error: MPIError | None = None
    for s in range(1, k):
        dst = ranks[(me + s) % k]
        src = ranks[(me - s) % k]
        size_dst = None if nbytes is None else int(nbytes[dst])
        ctx = None
        if causal.enabled:
            ctx = causal.child(trace_parent)
            causal.send(
                ctx,
                0,
                size_dst if size_dst is not None else sizeof(objs[dst]),
                leg="mpi-coll",
                round=s,
                dst=dst,
            )
        sreq = comm.proc._isend(
            group.gid_of(dst),
            rank,
            comm.desc.ctx_coll,
            tag,
            objs[dst],
            size_dst,
            trace_ctx=ctx,
        )
        rreq = comm.proc._irecv(src, tag, comm.desc.ctx_coll)
        try:
            out[src] = yield from rreq.wait()
        except WorldAbortedError:
            raise
        except MPIError as exc:
            if first_error is None:
                first_error = exc
        try:
            yield from sreq.wait()
        except WorldAbortedError:
            raise
        except MPIError as exc:
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return out
