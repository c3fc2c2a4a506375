"""Receive-side message matching: posted-receive and unexpected queues.

This implements the MPI matching rules the paper's designs depend on:

* a receive matches the **earliest-arrived** envelope with its exact
  ``(source, tag, context)`` spec,
* envelopes from the same sender on the same communicator are matched in
  send order (non-overtaking — guaranteed upstream by per-pair in-order
  delivery pipes),
* unmatched envelopes park in the **unexpected queue** (eager payloads pay
  an extra buffering copy when finally matched — the real cost that makes
  pre-posted receives faster),
* ``iprobe`` inspects the unexpected queue without consuming (this is the
  exact call MPI4Spark-Basic spins on inside the selector loop).

Every receive and probe MPI4Spark makes names one peer rank, one tag and
one context, so both queues are keyed by that spec and a lookup is one
dict probe whatever the queue depth. There are no wildcards: FIFO order
within a bucket is the whole matching order. Buckets are plain lists with
the head at index 0: they are created and freed per message burst and
hold at most tens of entries, so an empty deque's 760 B block would cost
more than ``pop(0)`` does (DESIGN §10 rule 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.mpi.envelope import Envelope
from repro.mpi.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


@dataclass(slots=True)
class PostedRecv:
    """A receive waiting for a matching envelope."""

    source: int
    tag: int
    context_id: int
    request: Request
    seq: int = 0  # post order, the order a failure sweep fails them in


class MatchingEngine:
    """Per-process matching state.

    The engine is *passive*: the runtime calls :meth:`deliver` when an
    envelope arrives and :meth:`post_recv` when a receive is posted; matched
    pairs are handed to ``on_match`` (the runtime schedules the data
    movement and completion timing).

    Both queues are keyed by the exact spec:

    * unexpected: ``{context_id: {(src, tag): list[(arr_seq, arrived_at,
      envelope)]}}`` — FIFO per bucket, head at index 0. The per-context
      level makes a probe of an idle context one int-keyed dict miss.
    * posted: ``{(ctx, src, tag): list[PostedRecv]}``, FIFO per bucket.

    Three sequence numbers survive only to order the failure sweeps across
    buckets: ``PostedRecv.seq`` (:meth:`fail_posted` fails in post order),
    ``arr_seq`` (the :attr:`unexpected` view a rank death walks in arrival
    order) and the probe waiters' seq (:meth:`wake_probes_empty` wakes in
    registration order).
    """

    def __init__(
        self,
        env: "SimEngine",
        on_match: Callable[[Envelope, PostedRecv, bool], None],
        name: str | None = None,
    ) -> None:
        self.env = env
        self.on_match = on_match
        self._ux: dict[int, dict[tuple[int, int], list]] = {}
        self._arr_seq = 0
        self._posted: dict[tuple[int, int, int], list] = {}
        self._post_seq = 0
        self._probe_waiters: dict[tuple[int, int, int], list] = {}
        self._probe_seq = 0
        # Registry metrics (repro.obs), rank-scoped when the owner gave us
        # a name (MPIProcess does; anonymous engines in unit tests don't).
        # Same-named engines share these counters, so their counts add
        # up; production names ("name#gid") are unique per world.
        m = env.metrics
        prefix = f"mpi.rank.{name}" if name else "mpi.rank.anon"
        self._c_iprobe = m.counter(f"{prefix}.iprobe_calls")
        self._c_posted_matches = m.counter(f"{prefix}.posted_matches")
        self._c_unexpected_matches = m.counter(f"{prefix}.unexpected_matches")
        self._c_iprobe_scanned = m.counter(f"{prefix}.iprobe_scan_len_total")

    # -- read-only views ---------------------------------------------------
    @property
    def unexpected(self) -> list[Envelope]:
        """Queued envelopes in arrival order (read-only view)."""
        entries = []
        for buckets in self._ux.values():
            for dq in buckets.values():
                entries.extend(dq)
        entries.sort(key=lambda e: e[0])
        return [envl for _, _, envl in entries]

    # -- arrivals ----------------------------------------------------------
    def deliver(self, env_msg: Envelope) -> None:
        """An envelope arrived from the network."""
        ctx = env_msg.context_id
        src = env_msg.src_rank
        tag = env_msg.tag
        if self._posted:
            key = (ctx, src, tag)
            dq = self._posted.get(key)
            if dq:
                posted = dq.pop(0)
                if not dq:
                    del self._posted[key]
                # matched a pre-posted receive: fast path, no extra copy
                self._c_posted_matches.value += 1.0
                if env_msg.trace_ctx is not None:
                    self.env.causal.match(env_msg.trace_ctx, 0.0, False)
                self.on_match(env_msg, posted, False)
                return
        buckets = self._ux.get(ctx)
        if buckets is None:
            buckets = self._ux[ctx] = {}
        bucket = buckets.get((src, tag))
        if bucket is None:
            bucket = buckets[(src, tag)] = []
        self._arr_seq += 1
        bucket.append((self._arr_seq, self.env.now, env_msg))
        if self._probe_waiters:
            waiters = self._probe_waiters.pop((ctx, src, tag), None)
            if waiters:
                for _, ev in waiters:
                    if not ev.triggered:
                        ev.succeed(env_msg)

    # -- receives ----------------------------------------------------------
    def post_recv(self, source: int, tag: int, context_id: int, request: Request) -> None:
        """Post a receive; matches the oldest queued envelope if any."""
        buckets = self._ux.get(context_id)
        dq = None if buckets is None else buckets.get((source, tag))
        if dq:
            _, arrived, env_msg = dq.pop(0)
            if not dq:
                del buckets[(source, tag)]
                if not buckets:
                    # Drop the empty per-context dict: the idle-queue probe
                    # fast path is then a single int-keyed dict miss.
                    del self._ux[context_id]
            self._c_unexpected_matches.value += 1.0
            if env_msg.trace_ctx is not None:
                # The dwell in the unexpected queue is the poll-discovery
                # delay the critical-path analyzer classifies (poll-tax for
                # the Basic design, queueing for Optimized).
                self.env.causal.match(env_msg.trace_ctx, self.env.now - arrived, True)
            self.on_match(
                env_msg,
                PostedRecv(source, tag, context_id, request),
                True,  # came off the unexpected queue → buffered copy
            )
            return
        self._post_seq += 1
        key = (context_id, source, tag)
        pdq = self._posted.get(key)
        if pdq is None:
            pdq = self._posted[key] = []
        pdq.append(PostedRecv(source, tag, context_id, request, seq=self._post_seq))

    # -- probes ------------------------------------------------------------
    def iprobe(self, source: int, tag: int, context_id: int) -> bool:
        """Non-blocking probe of the unexpected queue (MPI_Iprobe)."""
        self._c_iprobe.value += 1.0
        buckets = self._ux.get(context_id)
        if buckets is None:
            # Idle queue: the case the Basic design's poll loop hammers.
            return False
        self._c_iprobe_scanned.value += 1.0
        return (source, tag) in buckets

    def probe_event(self, source: int, tag: int, context_id: int):
        """Event triggering (with the envelope) when a match is queued.

        If a match is already queued the event triggers immediately. The
        envelope is *not* consumed — a subsequent recv claims it.
        """
        from repro.simnet.events import Event

        ev = Event(self.env)
        buckets = self._ux.get(context_id)
        dq = None if buckets is None else buckets.get((source, tag))
        if dq:
            ev.succeed(dq[0][2])
            return ev
        self._probe_seq += 1
        key = (context_id, source, tag)
        waiters = self._probe_waiters.get(key)
        if waiters is None:
            waiters = self._probe_waiters[key] = []
        waiters.append((self._probe_seq, ev))
        return ev

    def drop_unexpected(self) -> None:
        """Discard every queued envelope (rank death / world abort)."""
        self._ux.clear()

    # -- failure propagation ------------------------------------------------
    def fail_posted(
        self,
        pred: Callable[[PostedRecv], bool],
        exc_factory: Callable[[], BaseException],
    ) -> int:
        """Complete matching posted receives in error (rank death), in post
        order; the queue is rebuilt in one filtering pass."""
        victims: list[PostedRecv] = []
        for key in list(self._posted):
            dq = self._posted[key]
            keep = [p for p in dq if not pred(p)]
            if len(keep) != len(dq):
                victims.extend(p for p in dq if pred(p))
                if keep:
                    self._posted[key] = keep
                else:
                    del self._posted[key]
        victims.sort(key=lambda p: p.seq)
        for posted in victims:
            if not posted.request.event.triggered:
                posted.request.event.fail(exc_factory())
        return len(victims)

    def wake_probes_empty(self) -> None:
        """Wake every blocked probe with ``None`` (no message).

        Used on rank death so pollers (the Basic design's selector loop)
        re-examine their channels instead of parking forever on a peer that
        will never send again.
        """
        buckets, self._probe_waiters = self._probe_waiters, {}
        drained = sorted(w for dq in buckets.values() for w in dq)
        for _, ev in drained:
            if not ev.triggered:
                ev.succeed(None)
