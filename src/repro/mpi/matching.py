"""Receive-side message matching: posted-receive and unexpected queues.

This implements the MPI matching rules the paper's designs depend on:

* a receive matches the **earliest-arrived** envelope satisfying its
  ``(source, tag, context)`` spec (with wildcards),
* envelopes from the same sender on the same communicator are matched in
  send order (non-overtaking — guaranteed upstream by per-pair in-order
  delivery pipes),
* unmatched envelopes park in the **unexpected queue** (eager payloads pay
  an extra buffering copy when finally matched — the real cost that makes
  pre-posted receives faster),
* ``iprobe`` inspects the unexpected queue without consuming (this is the
  exact call MPI4Spark-Basic spins on inside the selector loop).

Queues are bucketed by ``(context, source, tag)`` so the common case — an
exact-spec recv or iprobe against a deep unexpected queue — is O(1) instead
of a linear scan.  Wildcard specs (``ANY_SOURCE``/``ANY_TAG``) fall back to
scanning bucket *heads* within the context, which is bounded by the number
of distinct (source, tag) pairs, not by queue depth.  FIFO order within a
bucket plus a global arrival sequence across buckets reproduces exactly the
earliest-arrived semantics of the previous single-list implementation.
Buckets are plain lists with the head at index 0: they are created and
freed per message burst and hold at most tens of entries, so an empty
deque's 760 B block would cost more than ``pop(0)`` does (DESIGN §10
rule 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.envelope import Envelope
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


@dataclass(slots=True)
class PostedRecv:
    """A receive waiting for a matching envelope."""

    source: int
    tag: int
    context_id: int
    request: Request
    seq: int = 0  # post order, used to arbitrate exact vs wildcard buckets


class MatchingEngine:
    """Per-process matching state.

    The engine is *passive*: the runtime calls :meth:`deliver` when an
    envelope arrives and :meth:`post_recv` when a receive is posted; matched
    pairs are handed to ``on_match`` (the runtime schedules the data
    movement and completion timing).

    Internally both queues are bucketed:

    * unexpected: ``{context_id: {(src, tag): list[(arr_seq, arrived_at,
      envelope)]}}`` — FIFO per bucket, head at index 0; ``arr_seq``
      totally orders arrivals across buckets so wildcard receives still
      claim the earliest arrival.
    * posted: exact specs in ``{(ctx, src, tag): list[PostedRecv]}``,
      wildcard specs in a post-ordered overflow list.  ``PostedRecv.seq``
      arbitrates between an exact-bucket head and the first matching
      wildcard so posted order is respected exactly as before.
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
        self._posted_exact: dict[tuple[int, int, int], list] = {}
        self._posted_wild: list[PostedRecv] = []
        self._post_seq = 0
        # Probe waiters bucketed by exact spec (wildcards are the -1
        # sentinels, so a delivery wakes at most the four candidate
        # buckets); the per-waiter sequence number restores the global
        # insertion order across buckets when several match at once.
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

    # -- compatibility views -----------------------------------------------
    @property
    def unexpected(self) -> list[Envelope]:
        """Queued envelopes in arrival order (read-only view)."""
        entries = []
        for buckets in self._ux.values():
            for dq in buckets.values():
                entries.extend(dq)
        entries.sort(key=lambda e: e[0])
        return [envl for _, _, envl in entries]

    @property
    def posted(self) -> list[PostedRecv]:
        """Outstanding posted receives in post order (read-only view)."""
        entries = list(self._posted_wild)
        for dq in self._posted_exact.values():
            entries.extend(dq)
        entries.sort(key=lambda p: p.seq)
        return entries

    # -- arrivals ----------------------------------------------------------
    def deliver(self, env_msg: Envelope) -> None:
        """An envelope arrived from the network."""
        cand = None
        dq = None
        if self._posted_exact:
            dq = self._posted_exact.get(
                (env_msg.context_id, env_msg.src_rank, env_msg.tag)
            )
            if dq:
                cand = dq[0]
        wild = None
        for p in self._posted_wild:  # post order → first match has lowest seq
            if _spec_matches(p.source, p.tag, p.context_id, env_msg):
                wild = p
                break
        if wild is not None and (cand is None or wild.seq < cand.seq):
            self._posted_wild.remove(wild)
            cand = wild
        elif cand is not None:
            dq.pop(0)
            if not dq:
                del self._posted_exact[(env_msg.context_id, env_msg.src_rank, env_msg.tag)]
        if cand is not None:
            # matched a pre-posted receive: fast path, no extra copy
            self._c_posted_matches.value += 1.0
            if env_msg.trace_ctx is not None:
                self.env.causal.match(env_msg.trace_ctx, 0.0, False)
            self.on_match(env_msg, cand, False)
            return
        buckets = self._ux.get(env_msg.context_id)
        if buckets is None:
            buckets = self._ux[env_msg.context_id] = {}
        key = (env_msg.src_rank, env_msg.tag)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
        self._arr_seq += 1
        bucket.append((self._arr_seq, self.env.now, env_msg))
        self._wake_probes(env_msg)

    # -- unexpected-queue lookup -------------------------------------------
    def _find_unexpected(self, source: int, tag: int, context_id: int):
        """Earliest-arrived matching bucket, or None.

        Returns ``(buckets, key, bucket, scan_len)`` where ``bucket[0]`` is
        the earliest matching arrival, without consuming it.
        """
        buckets = self._ux.get(context_id)
        if buckets is None:
            return None, None, None, 0
        if source != ANY_SOURCE and tag != ANY_TAG:
            dq = buckets.get((source, tag))
            if dq:
                return buckets, (source, tag), dq, 1
            return None, None, None, 1
        best_key = None
        best_dq = None
        best_seq = None
        scan = 0
        for key, dq in buckets.items():
            scan += 1
            src, tg = key
            if source != ANY_SOURCE and source != src:
                continue
            if tag != ANY_TAG and tag != tg:
                continue
            head_seq = dq[0][0]
            if best_seq is None or head_seq < best_seq:
                best_key, best_dq, best_seq = key, dq, head_seq
        if best_dq is None:
            return None, None, None, scan
        return buckets, best_key, best_dq, scan

    def _pop_unexpected(self, context_id, buckets, key, dq):
        arr_seq, arrived, envl = dq.pop(0)
        if not dq:
            del buckets[key]
            if not buckets:
                # Drop the empty per-context dict: the idle-queue probe
                # fast path is then a single int-keyed dict miss.
                del self._ux[context_id]
        return arrived, envl

    # -- receives ----------------------------------------------------------
    def post_recv(self, source: int, tag: int, context_id: int, request: Request) -> None:
        """Post a receive; matches the oldest queued envelope if any."""
        buckets, key, dq, _ = self._find_unexpected(source, tag, context_id)
        if dq is not None:
            arrived, env_msg = self._pop_unexpected(context_id, buckets, key, dq)
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
        posted = PostedRecv(source, tag, context_id, request, seq=self._post_seq)
        if source == ANY_SOURCE or tag == ANY_TAG:
            self._posted_wild.append(posted)
        else:
            pdq = self._posted_exact.get((context_id, source, tag))
            if pdq is None:
                pdq = self._posted_exact[(context_id, source, tag)] = []
            pdq.append(posted)

    # -- probes ------------------------------------------------------------
    def iprobe(
        self, source: int, tag: int, context_id: int, status: Status | None = None
    ) -> bool:
        """Non-blocking probe of the unexpected queue (MPI_Iprobe)."""
        self._c_iprobe.value += 1.0
        buckets = self._ux.get(context_id)
        if buckets is None:
            # Idle queue: the case the Basic design's poll loop hammers.
            return False
        if source != ANY_SOURCE and tag != ANY_TAG:
            self._c_iprobe_scanned.value += 1.0
            dq = buckets.get((source, tag))
            if not dq:
                return False
            if status is not None:
                _fill_status(status, dq[0][2])
            return True
        _, _, dq, scan = self._find_unexpected(source, tag, context_id)
        self._c_iprobe_scanned.value += scan
        if dq is None:
            return False
        if status is not None:
            _fill_status(status, dq[0][2])
        return True

    def probe_event(self, source: int, tag: int, context_id: int):
        """Event triggering (with the envelope) when a match is queued.

        If a match is already queued the event triggers immediately. The
        envelope is *not* consumed — a subsequent recv claims it.
        """
        from repro.simnet.events import Event

        ev = Event(self.env)
        _, _, dq, _ = self._find_unexpected(source, tag, context_id)
        if dq is not None:
            ev.succeed(dq[0][2])
            return ev
        self._probe_seq += 1
        key = (context_id, source, tag)
        waiters = self._probe_waiters.get(key)
        if waiters is None:
            waiters = self._probe_waiters[key] = []
        waiters.append((self._probe_seq, ev))
        return ev

    def _wake_probes(self, env_msg: Envelope) -> None:
        all_waiters = self._probe_waiters
        if not all_waiters:
            return
        # Every waiter in a matching bucket matches the envelope (the
        # bucket key IS the spec), so whole buckets wake at once; sorting
        # by waiter seq reproduces the old single-list wake order.
        ctx = env_msg.context_id
        src = env_msg.src_rank
        tag = env_msg.tag
        matched = None
        for key in (
            (ctx, src, tag),
            (ctx, ANY_SOURCE, tag),
            (ctx, src, ANY_TAG),
            (ctx, ANY_SOURCE, ANY_TAG),
        ):
            waiters = all_waiters.pop(key, None)
            if waiters:
                matched = waiters if matched is None else matched
                if matched is not waiters:
                    matched.extend(waiters)
        if matched is None:
            return
        for _, ev in sorted(matched):
            if not ev.triggered:
                ev.succeed(env_msg)

    def drop_unexpected(self) -> None:
        """Discard every queued envelope (rank death / world abort)."""
        self._ux.clear()

    # -- failure propagation ------------------------------------------------
    def fail_posted(
        self,
        pred: Callable[[PostedRecv], bool],
        exc_factory: Callable[[], BaseException],
    ) -> int:
        """Complete matching posted receives in error (rank death).

        The queues are rebuilt once (a single filtering pass) instead of a
        per-victim ``list.remove`` — with n victims among n posted receives
        the old implementation was O(n²) in dataclass ``__eq__`` calls.
        """
        victims: list[PostedRecv] = []
        for key in list(self._posted_exact):
            dq = self._posted_exact[key]
            keep = [p for p in dq if not pred(p)]
            if len(keep) != len(dq):
                victims.extend(p for p in dq if pred(p))
                if keep:
                    self._posted_exact[key] = keep
                else:
                    del self._posted_exact[key]
        keep_wild = [p for p in self._posted_wild if not pred(p)]
        if len(keep_wild) != len(self._posted_wild):
            victims.extend(p for p in self._posted_wild if pred(p))
            self._posted_wild = keep_wild
        victims.sort(key=lambda p: p.seq)  # fail in post order, as before
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


def _spec_matches(source: int, tag: int, context_id: int, envl: Envelope) -> bool:
    """Does ``envl`` satisfy a recv/probe spec? (wildcard-aware)"""
    if context_id != envl.context_id:
        return False
    if source != ANY_SOURCE and source != envl.src_rank:
        return False
    if tag != ANY_TAG and tag != envl.tag:
        return False
    return True


def _fill_status(status: Status, env_msg: Envelope) -> None:
    status.source = env_msg.src_rank
    status.tag = env_msg.tag
    status.nbytes = env_msg.nbytes
