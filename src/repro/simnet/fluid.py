"""Flow-level (fluid) bandwidth sharing for bulk transfers.

Message-granularity FIFO serialization at NICs produces convoy effects
that packet-switched fabrics do not have: a megabyte transfer would block
an unrelated transfer for its full serialization time, idling the
receiver. Real NICs interleave at packet granularity, so concurrent flows
share bandwidth ~fairly. This module implements the standard flow-level
approximation:

* each *link* (one node direction for one protocol stack) has a capacity
  in bytes/second — the protocol's effective bandwidth, so e.g. all TCP
  flows into a node share the IPoIB stack's effective rate while MPI flows
  share the verbs path's;
* an active flow's rate is the minimum of its links' equal shares (exact
  max-min for the symmetric all-to-all patterns of a shuffle) — so a
  flow's rate depends *only on its own links' flow counts*;
* bookkeeping is lazy and local: starting/finishing a flow re-rates only
  the flows sharing its links, each flow's progress is drained on touch,
  and every re-rate gives a flow a new completion key. This keeps the
  cost per network event at O(flows on the affected links), which is what
  makes 32-worker shuffle simulations tractable.

Each link is one :class:`_Link` holding its capacity, the fids sharing it
and its equal share ``cap / len(fids)``. The share is recomputed only
where a flow joins or leaves the link, so a re-rate reads it instead of
dividing again for every flow it touches; nothing keeps running rate
sums (``utilization()`` adds live rates on demand).

Completion keys live in the network's own heap, not the kernel's. A
re-arm reserves a kernel sequence number exactly where a ``timeout()``
would have taken one and files ``(now + remaining / rate, seq, flow)``
privately; only the earliest live entry is pushed to the kernel, at that
very key. The kernel pops by ``(time, seq)``, so it dispatches the same
completions in the same order as if every re-arm had been pushed, while
the re-arms that a later re-rate replaces, nearly all of them, never
reach the kernel heap.

Re-rating is the per-event hot path at scale: one shuffle wave re-rates
every flow sharing a NIC lane on every start/finish. Batches at or above
``FluidNetwork._VECTOR_MIN`` flows are computed with one numpy gather/min
over a dense array mirroring every link's share instead of a per-flow
Python loop. Both paths produce bit-identical IEEE-754 rates: they read
the same cached shares and take the same float64 min, and completion keys
are reserved in the same ``sorted(fids)`` order either way.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from operator import attrgetter
from typing import TYPE_CHECKING, Hashable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine
    from repro.simnet.events import Event

# A residual below this many bytes counts as finished (guards against
# float-time horizons that round to zero near large clock values).
_FINISH_SLACK_BYTES = 1e-3


class _Link:
    """One link: its capacity, the flows sharing it and their equal share.

    ``share`` is ``cap / len(fids)``, refreshed whenever a fid joins or
    leaves (stale while ``fids`` is empty: no flow reads it then) and
    mirrored at ``idx`` in ``FluidNetwork._shares_arr``.
    """

    __slots__ = ("key", "cap", "fids", "share", "idx")

    def __init__(self, key: Hashable, cap: float, idx: int) -> None:
        self.key = key
        self.cap = cap
        self.fids: set[int] = set()
        self.share = cap
        self.idx = idx


class Flow:
    """One in-progress bulk transfer."""

    __slots__ = (
        "fid",
        "links",
        "lidx",
        "remaining",
        "rate",
        "last",
        "done",
        "seq",
        "timer",
    )

    def __init__(
        self,
        fid: int,
        links: tuple[_Link, ...],
        lidx: tuple[int, ...],
        nbytes: float,
        done: "Event",
    ) -> None:
        self.fid = fid
        self.links = links
        self.lidx = lidx  # the links' _shares_arr slots, for the vector gather
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last = 0.0  # sim time of the last progress drain
        self.done = done
        # Kernel sequence number of the flow's live completion entry in
        # FluidNetwork._heap (0: none). An entry whose seq differs is stale.
        self.seq = 0
        # The kernel Timeout of that entry, once it has been pushed
        # (cancelled on re-arm or removal). It carries this flow as its
        # value, so one network-level callback serves every flow; the
        # engine drops the value when the timer is cancelled or recycled,
        # so the pair is a cycle only while armed.
        self.timer = None


class FluidNetwork:
    """Tracks active flows and drives their completions."""

    # Re-rate batches with at least this many flows take the numpy path;
    # smaller batches stay scalar (fixed array-build cost beats the loop
    # only once a handful of flows share the touched links). Tests pin
    # this to 1 / a large value to force either path.
    _VECTOR_MIN = 8

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.flows: dict[int, Flow] = {}
        self.links: dict[Hashable, _Link] = {}
        self.completed = 0
        # Flow ids are allocated per network (not process-global) so two
        # clusters built in the same process — parallel harness workers,
        # back-to-back tests — see identical fid sequences and therefore
        # identical sorted(fids) timer orders.
        self._next_fid = 0
        # _Link.share by _Link.idx, for the vectorized re-rate's gather.
        self._shares_arr = np.zeros(16, dtype=np.float64)
        # Completion entries (deadline, kernel seq, flow), live while the
        # flow still carries that seq; _sync keeps the earliest live one
        # in the kernel heap.
        self._heap: list[tuple[float, int, Flow]] = []
        m = env.metrics
        self._c_flow_bytes = m.counter("simnet.fluid.flow_bytes")
        self._c_rerate_calls = m.counter("simnet.fluid.rerate.calls")
        self._c_rerate_flows = m.counter("simnet.fluid.rerate.flows")
        self._c_vector_batches = m.counter("simnet.fluid.rerate.vector_batches")
        self._c_max_batch = m.counter("simnet.fluid.rerate.max_batch")

    # -- public API ----------------------------------------------------------
    def transfer(self, links: list[tuple[Hashable, float]], nbytes: float) -> "Event":
        """Start a flow over ``[(link_key, capacity_Bps), ...]``.

        Returns an event triggering when the last byte has moved. A link's
        capacity is fixed by its first appearance; later values for the
        same key are ignored.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = self.env.event()
        if nbytes == 0:
            done.succeed()
            return done
        known = self.links
        path = []
        lidx = []
        for key, cap in links:
            if cap <= 0:
                raise ValueError(f"link capacity must be positive, got {cap}")
            link = known.get(key)
            if link is None:
                link = self._register_link(key, float(cap))
            path.append(link)
            lidx.append(link.idx)
        fid = self._next_fid
        self._next_fid = fid + 1
        flow = Flow(fid, tuple(path), tuple(lidx), nbytes, done)
        flow.last = self.env.now
        self.flows[fid] = flow
        self._c_flow_bytes.value += nbytes
        shares = self._shares_arr
        for link in path:
            sharing = link.fids
            if fid not in sharing:
                sharing.add(fid)
                share = link.share = link.cap / len(sharing)
                shares[link.idx] = share
        # _affected() after registration already includes the new fid.
        self._rerate(self._affected(path))
        self._sync()
        return done

    def abort_flows(self, link_pred, exc_factory) -> int:
        """Fail every active flow crossing a link matching ``link_pred``.

        Used on node failure: in-flight bulk transfers touching the dead
        node complete in error (their ``done`` event fails with
        ``exc_factory()``), and the freed capacity re-rates survivors.
        Returns the number of flows aborted.
        """
        victims = [
            flow
            for flow in self.flows.values()
            if any(link_pred(link.key) for link in flow.links)
        ]
        for flow in sorted(victims, key=lambda f: f.fid):
            del self.flows[flow.fid]
            self._unlink(flow)
            self._disarm(flow)  # a cancelled timer's callback never runs
            flow.done.fail(exc_factory())
        if victims:
            affected: set[int] = set()
            for flow in victims:
                affected |= self._affected(flow.links)
            self._rerate(affected)
            self._sync()
        return len(victims)

    # -- internals ----------------------------------------------------------
    def _register_link(self, key: Hashable, cap: float) -> _Link:
        idx = len(self.links)
        if idx >= len(self._shares_arr):
            self._shares_arr = np.concatenate(
                [self._shares_arr, np.zeros_like(self._shares_arr)]
            )
        self.links[key] = link = _Link(key, cap, idx)
        return link

    def _unlink(self, flow: Flow) -> None:
        """Remove a departing flow from its links, refreshing their shares."""
        shares = self._shares_arr
        fid = flow.fid
        for link in flow.links:
            sharing = link.fids
            if fid in sharing:
                sharing.remove(fid)
                if sharing:
                    share = link.share = link.cap / len(sharing)
                    shares[link.idx] = share

    @staticmethod
    def _affected(links) -> set[int]:
        """Fids of every flow sharing a link in ``links``.

        May return a link's live sharing set on the single-link fast path
        — callers must treat the result as read-only. The dominant
        wire-path shape (exactly two links: one TX, one RX lane) gets a
        single ``a | b`` union with no intermediate garbage.
        """
        if len(links) == 2:
            a, b = links
            return a.fids | b.fids
        if len(links) == 1:
            return links[0].fids
        out: set[int] = set()
        for link in links:
            out |= link.fids
        return out

    def _touch(self, flow: Flow) -> None:
        """Drain progress since the flow's last update."""
        now = self.env.now
        dt = now - flow.last
        if dt > 0:
            flow.remaining -= flow.rate * dt
            if flow.remaining < 0:
                flow.remaining = 0.0
        flow.last = now

    def _rerate(self, fids) -> None:
        """Re-rate the given flows and file their new completion entries.

        One pass per flow drains its progress, sets its rate from the
        cached link shares and files its new entry — one per affected flow
        per re-rate, making its last one stale; the caller then runs
        :meth:`_sync`. Batches of ``_VECTOR_MIN``+ flows gather all their
        shares from ``_shares_arr`` and take the min in numpy first; the
        filing loop runs in the same order either way.
        """
        # sorted(fids) is load-bearing: each entry's kernel sequence number
        # is reserved in this order, and the event heap breaks
        # same-timestamp ties by sequence number. Iterating a raw set would
        # make completion order (and thus simulated schedules) depend on
        # set-iteration order, breaking the byte-identical figure rows.
        touched = list(map(self.flows.__getitem__, sorted(fids)))
        k = len(touched)
        if k == 0:
            return
        self._c_rerate_calls.value += 1.0
        self._c_rerate_flows.value += k
        if k > self._c_max_batch.value:
            self._c_max_batch.value = float(k)
        if k >= self._VECTOR_MIN:
            # Vectorized path: gather each flow's links' shares in one
            # shot. Wire flows always have exactly two links; mixed
            # batches fall back to a segmented min (reduceat).
            self._c_vector_batches.value += 1.0
            lidx = list(map(attrgetter("lidx"), touched))
            shares = self._shares_arr.take(list(chain.from_iterable(lidx)))
            lens = list(map(len, lidx))
            if lens.count(2) == k:
                rates = np.minimum(shares[0::2], shares[1::2]).tolist()
            else:
                offsets = list(accumulate(lens[:-1], initial=0))
                rates = np.minimum.reduceat(shares, offsets).tolist()
        else:
            rates = []
            for flow in touched:
                links = flow.links
                if len(links) == 2:
                    # Fast path: the wire path always shares a TX and an RX lane.
                    ra = links[0].share
                    rb = links[1].share
                    rates.append(ra if ra < rb else rb)
                else:
                    rates.append(min(link.share for link in links))
        now = self.env.now
        heap = self._heap
        cancel = self.env.cancel
        # One kernel key per re-rated flow, in sorted(fids) order: the
        # sequence numbers timeout() would have taken here.
        seq = self.env.reserve(k)
        for flow, rate in zip(touched, rates):
            dt = now - flow.last
            if dt > 0:
                flow.remaining -= flow.rate * dt
                if flow.remaining < 0:
                    flow.remaining = 0.0
            flow.last = now
            flow.rate = rate
            if flow.timer is not None:
                cancel(flow.timer)
                flow.timer = None
            if rate > 0.0:
                flow.seq = seq
                heappush(heap, (now + flow.remaining / rate, seq, flow))
            else:
                flow.seq = 0
            seq += 1

    def _disarm(self, flow: Flow) -> None:
        """Make the flow's completion entry stale and cancel its timer."""
        flow.seq = 0
        if flow.timer is not None:
            self.env.cancel(flow.timer)
            flow.timer = None

    def _sync(self) -> None:
        """Give the earliest live completion entry its kernel timer.

        Runs after every change to the entries. The kernel then always
        holds the next completion due at exactly its reserved key, so it
        pops completions where it would have had every re-arm been pushed.
        A kernel timer stays until its own flow is re-armed or removed.
        """
        heap = self._heap
        if len(heap) > 3 * len(self.flows) + 64:
            # At most one entry per flow is live: this keeps the stale
            # ones, and the finished Flows they hold, under 2 x flows + 64.
            heap[:] = [entry for entry in heap if entry[2].seq == entry[1]]
            heapify(heap)
        while heap:
            deadline, seq, flow = heap[0]
            if flow.seq != seq:
                heappop(heap)
                continue
            if flow.timer is None:
                timer = flow.timer = self.env.timeout_at(deadline, seq, flow)
                timer.callbacks.append(self._on_timer)
            return

    def _on_timer(self, ev) -> None:
        flow: Flow = ev._value
        if flow.timer is not ev or flow.fid not in self.flows:
            return  # replaced by a later rate change, or already finished
        flow.timer = None
        self._touch(flow)
        if flow.remaining > max(_FINISH_SLACK_BYTES, flow.rate * 1e-9):
            # Float drift: not quite done; re-arm for the residual.
            horizon = flow.remaining / flow.rate
            seq = flow.seq = self.env.reserve(1)
            heappush(self._heap, (self.env.now + max(horizon, 0.0), seq, flow))
            self._sync()
            return
        del self.flows[flow.fid]
        self._unlink(flow)
        flow.seq = 0
        self.completed += 1
        flow.done.succeed()
        # Freed capacity speeds up the neighbours.
        self._rerate(self._affected(flow.links))
        self._sync()
