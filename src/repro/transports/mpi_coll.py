"""MPI4Spark-Collective: one alltoallv per stage boundary.

Where the Optimized design still moves shuffle data through Spark's
per-block ChunkFetch request/response pattern (open-blocks RPC, windowed
chunk fetches, per-chunk server turnaround), this transport performs the
entire map→reduce exchange as a single variable-sized collective per
stage boundary — the Alchemist/Spark-MPI observation that bulk exchange
belongs to ``MPI_Alltoallv``, not point-to-point request/response.

The control plane (RPCs, handshakes, registration) is inherited
unchanged from :class:`~repro.transports.mpi_opt.MpiOptimizedTransport`;
only the shuffle data plane differs.  The scheduler detects the
``collective_shuffle`` flag and, instead of letting every reduce task
issue per-block fetches, aggregates the stage's traffic matrix into one
:class:`CollectiveShuffleExchange` that all of the stage's tasks wait
on.  Eliminated wholesale: the open-blocks RPC round trip per source,
the per-chunk request/response latency, server-side queueing, and the
in-flight-window stalls — the segments the critical-path analyzer files
under *fetch-wait* and *queue*.

Fault semantics: a participant dying mid-exchange fails the whole
exchange (after the round schedule drains among survivors, so nobody
hangs); waiting tasks surface it as a fetch failure attributed to the
dead executor, which the resilient scheduler turns into a stage
resubmission.  A world abort (``fault_mode="abort"``) fails the job, as
it does for every MPI transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.mpi.collectives import alltoallv
from repro.mpi.errors import MPIError, RankDeadError, WorldAbortedError
from repro.simnet.events import Event
from repro.transports.mpi_opt import MpiOptimizedTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MPIProcess
    from repro.simnet.engine import SimEngine


class CollectiveShuffleExchange:
    """One stage boundary's map→reduce traffic as a single alltoallv.

    ``members`` is the ordered list of ``(comm_rank, MPIProcess)``
    participants (one per executor of the stage's cluster/app subset);
    ``totals[i][j]`` is the byte count member ``i`` receives from member
    ``j`` — the stage's fetch matrix aggregated over reduce tasks, with
    the local (diagonal) traffic excluded.  ``tag`` must be unique among
    concurrently live exchanges on the same communicator so rounds of
    different stage boundaries can never cross-match.

    The exchange starts moving bytes the moment :meth:`start` runs —
    at stage start, not per task — and every reduce task of the stage
    waits on the same completion event via :meth:`wait`.

    Liveness is resolved once at start: members whose process is already
    dead are dropped from the round schedule (the ULFM-shrunk subset);
    if the traffic matrix still owes bytes to or from a dead member the
    exchange fails immediately, which callers surface as a fetch
    failure so the scheduler re-plans onto survivors.
    """

    def __init__(
        self,
        env: "SimEngine",
        label: str,
        members: Sequence[tuple[int, "MPIProcess"]],
        totals: Sequence[Sequence[float]],
        tag: int,
    ) -> None:
        self.env = env
        self.label = label
        self.members = list(members)
        self.totals = totals
        self.tag = tag
        self.done = Event(env)
        self.error: MPIError | None = None
        self._live: list[int] = []
        self._pending = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Resolve liveness and launch one participant per live member."""
        n = len(self.members)
        self._live = [i for i, (_, proc) in enumerate(self.members) if proc.alive]
        live = set(self._live)
        for i in range(n):
            for j in range(n):
                if self.totals[i][j] and (i not in live or j not in live):
                    dead = i if i not in live else j
                    self.error = RankDeadError(
                        f"coll:{self.label}: member {dead} "
                        f"(rank {self.members[dead][0]}) is dead with "
                        f"{int(self.totals[i][j])} bytes outstanding"
                    )
                    self.done.succeed()
                    return
        if len(self._live) <= 1:
            self.done.succeed()
            return
        self._pending = len(self._live)
        for i in self._live:
            rank, proc = self.members[i]
            self.env.process(
                self._participant(i), name=f"coll:{self.label}:r{rank}"
            )

    def _participant(self, i: int) -> Generator:
        rank, proc = self.members[i]
        comm = proc.comm_world
        live_ranks = [self.members[j][0] for j in self._live]
        # Bytes this member sends to each comm rank (column i of totals,
        # spread onto communicator rank indices; zero-size slots included
        # so every rank drives the identical round schedule).
        send_nbytes = [0] * comm.size
        payload = [None] * comm.size
        for j in self._live:
            peer_rank = self.members[j][0]
            nb = int(self.totals[j][i])
            send_nbytes[peer_rank] = nb
            if nb > 0:
                payload[peer_rank] = ("shuffle", self.label, rank, peer_rank)
        causal = self.env.causal
        ctx = None
        if causal.enabled:
            ctx = causal.mint()
            causal.event(
                "coll.start", ctx, exchange=self.label, rank=rank,
                tag=self.tag, send_bytes=sum(send_nbytes),
            )
        try:
            yield from alltoallv(
                comm,
                payload,
                nbytes=send_nbytes,
                tag=self.tag,
                trace_parent=ctx,
                ranks=live_ranks,
            )
        except MPIError as exc:
            if self.error is None:
                self.error = exc
        finally:
            if causal.enabled:
                causal.event(
                    "coll.finish", ctx, exchange=self.label, rank=rank,
                    failed=self.error is not None,
                )
            self._pending -= 1
            if self._pending == 0 and not self.done.triggered:
                self.done.succeed()

    # -- waiters ------------------------------------------------------------
    def wait(self) -> Generator:
        """Block until the exchange completes; raise its first error."""
        yield self.done
        if self.error is not None:
            raise self.error

    def failed_member(self) -> int | None:
        """Index (into ``members``) of a dead participant, for blame.

        Resolved by ground-truth liveness after failure — the same
        information a ULFM failure handler gets from the communicator —
        or None when the failure is not attributable to a specific peer
        (callers then treat it as a transient fetch failure).
        """
        if self.error is None:
            return None
        for i, (_, proc) in enumerate(self.members):
            if not proc.alive:
                return i
        return None


class MpiCollectiveTransport(MpiOptimizedTransport):
    """MPI4Spark-Collective: Optimized control plane, alltoallv data plane."""

    name = "mpi-coll"
    # The scheduler keys off this flag: ShuffleReadStage fetch phases
    # collapse into one CollectiveShuffleExchange per stage boundary.
    collective_shuffle = True

    def start_exchange(
        self,
        label: str,
        members: Sequence[tuple[int, "MPIProcess"]],
        totals: Sequence[Sequence[float]],
        tag: int,
    ) -> CollectiveShuffleExchange:
        """Build and launch one stage boundary's collective exchange."""
        exchange = CollectiveShuffleExchange(
            self.env, label, members, totals, tag
        )
        exchange.start()
        return exchange


__all__ = [
    "CollectiveShuffleExchange",
    "MpiCollectiveTransport",
    "WorldAbortedError",
]
