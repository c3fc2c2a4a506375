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
``FluidNetwork._VECTOR_MIN`` flows are computed with one numpy
gather/divide/reduce over per-link capacity and flow-count arrays instead
of a per-flow Python loop. Both paths produce bit-identical IEEE-754
rates: the vector path evaluates exactly ``cap[l] / n[l]`` per link and a
pairwise float64 min, the same operations the scalar path performs, and
completion keys are reserved in the same ``sorted(fids)`` order either way.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Hashable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine
    from repro.simnet.events import Event

# A residual below this many bytes counts as finished (guards against
# float-time horizons that round to zero near large clock values).
_FINISH_SLACK_BYTES = 1e-3


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
        links: tuple[Hashable, ...],
        lidx: tuple[int, ...],
        nbytes: float,
        done: "Event",
    ) -> None:
        self.fid = fid
        self.links = links
        self.lidx = lidx  # per-network dense link indices, parallel to links
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
        self.link_flows: dict[Hashable, set[int]] = {}
        self.link_caps: dict[Hashable, float] = {}
        # Running sum of active flow rates per link, maintained at every
        # rate change / flow removal so utilization() is O(1) instead of
        # scanning link_flows.
        self.link_rate: dict[Hashable, float] = {}
        self.completed = 0
        # Flow ids are allocated per network (not process-global) so two
        # clusters built in the same process — parallel harness workers,
        # back-to-back tests — see identical fid sequences and therefore
        # identical sorted(fids) timer orders.
        self._next_fid = 0
        # Dense link registry backing the vectorized re-rate: link key ->
        # array index, with capacity / active-flow-count arrays kept in
        # lockstep with link_flows at every add/remove site.
        self.link_index: dict[Hashable, int] = {}
        self._caps_arr = np.zeros(16, dtype=np.float64)
        self._counts_arr = np.zeros(16, dtype=np.int64)
        # Completion entries (deadline, kernel seq, flow), live while the
        # flow still carries that seq; _sync keeps the earliest live one
        # in the kernel heap.
        self._heap: list[tuple[float, int, Flow]] = []
        # Time-weighted concurrency of bulk transfers (repro.obs).
        self._g_active = env.metrics.time_gauge("simnet.fluid.active_flows")
        self._c_flow_bytes = env.metrics.counter("simnet.fluid.flow_bytes")
        # Re-rate batch telemetry: plain ints on the hot path, published
        # lazily at snapshot time (same idiom as netty.loop.* counters).
        self._n_rerate_calls = 0
        self._n_rerate_flows = 0
        self._n_vector_batches = 0
        self._max_batch = 0
        m = env.metrics
        c_calls = m.counter("simnet.fluid.rerate.calls")
        c_flows = m.counter("simnet.fluid.rerate.flows")
        c_vec = m.counter("simnet.fluid.rerate.vector_batches")
        c_max = m.counter("simnet.fluid.rerate.max_batch")

        def _publish_rerate_stats() -> None:
            c_calls.value = float(self._n_rerate_calls)
            c_flows.value = float(self._n_rerate_flows)
            c_vec.value = float(self._n_vector_batches)
            c_max.value = float(self._max_batch)

        m.on_snapshot(_publish_rerate_stats)

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
        link_index = self.link_index
        keys = []
        lidx = []
        for key, cap in links:
            if cap <= 0:
                raise ValueError(f"link capacity must be positive, got {cap}")
            idx = link_index.get(key)
            if idx is None:
                idx = self._register_link(key, float(cap))
            keys.append(key)
            lidx.append(idx)
        fid = self._next_fid
        self._next_fid = fid + 1
        flow = Flow(fid, tuple(keys), tuple(lidx), nbytes, done)
        flow.last = self.env.now
        self.flows[fid] = flow
        self._g_active.set(len(self.flows))
        self._c_flow_bytes.inc(nbytes)
        link_flows = self.link_flows
        counts = self._counts_arr
        for key, idx in zip(keys, lidx):
            sharing = link_flows[key]
            if fid not in sharing:
                sharing.add(fid)
                counts[idx] += 1
        # _affected() after registration already includes the new fid.
        self._rerate(self._affected(keys))
        self._sync()
        return done

    @property
    def active_count(self) -> int:
        return len(self.flows)

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
            if any(link_pred(key) for key in flow.links)
        ]
        for flow in sorted(victims, key=lambda f: f.fid):
            del self.flows[flow.fid]
            self._unlink(flow)
            self._disarm(flow)  # a cancelled timer's callback never runs
            flow.done.fail(exc_factory())
        self._g_active.set(len(self.flows))
        if victims:
            affected: set[int] = set()
            for flow in victims:
                affected |= self._affected(flow.links)
            self._rerate(affected)
            self._sync()
        return len(victims)

    def utilization(self, link: Hashable) -> float:
        """Instantaneous share of a link's capacity in use.

        O(1): reads the running per-link rate sum maintained by _rerate
        and the removal paths instead of scanning the link's flows. The
        max(0, ·) clamps float cancellation residue near zero.
        """
        cap = self.link_caps.get(link)
        if not cap:
            return 0.0
        return max(self.link_rate.get(link, 0.0), 0.0) / cap

    # -- internals ----------------------------------------------------------
    def _register_link(self, key: Hashable, cap: float) -> int:
        idx = len(self.link_index)
        if idx >= len(self._caps_arr):
            self._caps_arr = np.concatenate([self._caps_arr, np.zeros_like(self._caps_arr)])
            self._counts_arr = np.concatenate(
                [self._counts_arr, np.zeros_like(self._counts_arr)]
            )
        self.link_index[key] = idx
        self._caps_arr[idx] = cap
        self.link_caps[key] = cap
        self.link_flows[key] = set()
        self.link_rate[key] = 0.0
        return idx

    def _unlink(self, flow: Flow) -> None:
        """Remove a departing flow from its links' sharing sets/counts."""
        link_flows = self.link_flows
        link_rate = self.link_rate
        counts = self._counts_arr
        fid = flow.fid
        rate = flow.rate
        for key, idx in zip(flow.links, flow.lidx):
            sharing = link_flows[key]
            if fid in sharing:
                sharing.remove(fid)
                counts[idx] -= 1
            link_rate[key] -= rate

    def _affected(self, keys) -> set[int]:
        """Fids of every flow sharing a link in ``keys``.

        May return a live internal sharing set on the single-link fast
        path — callers must treat the result as read-only. The dominant
        wire-path shape (exactly two links: one TX, one RX lane) gets a
        single ``a | b`` union with no intermediate garbage.
        """
        link_flows = self.link_flows
        if len(keys) == 2:
            k0, k1 = keys
            a = link_flows.get(k0)
            b = link_flows.get(k1)
            if a is None:
                return b if b is not None else set()
            if b is None:
                return a
            return a | b
        if len(keys) == 1:
            s = link_flows.get(keys[0])
            return s if s is not None else set()
        out: set[int] = set()
        for key in keys:
            s = link_flows.get(key)
            if s:
                out |= s
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

        Two coalesced passes per step: drain everyone's progress first,
        then compute the new rates and file entries — one new entry per
        affected flow per re-rate, making its last one stale; the
        caller then runs :meth:`_sync`. Batches of ``_VECTOR_MIN``+ flows
        compute all rates with one numpy gather/divide/min over the link
        arrays; the filing loop runs in the same order either way.
        """
        touched = []
        flows = self.flows
        now = self.env.now
        # sorted(fids) is load-bearing: each entry's kernel sequence number
        # is reserved in this order, and the event heap breaks
        # same-timestamp ties by sequence number. Iterating a raw set would
        # make completion order (and thus simulated schedules) depend on
        # set-iteration order, breaking the byte-identical figure rows.
        for fid in sorted(fids):
            flow = flows.get(fid)
            if flow is None:
                continue
            dt = now - flow.last
            if dt > 0:
                flow.remaining -= flow.rate * dt
                if flow.remaining < 0:
                    flow.remaining = 0.0
            flow.last = now
            touched.append(flow)
        k = len(touched)
        if k == 0:
            return
        self._n_rerate_calls += 1
        self._n_rerate_flows += k
        if k > self._max_batch:
            self._max_batch = k
        if k >= self._VECTOR_MIN:
            # Vectorized path: gather each flow's links' cap/count pairs
            # in one shot. Wire flows always have exactly two links; mixed
            # batches fall back to a segmented min (reduceat).
            self._n_vector_batches += 1
            flat: list[int] = []
            uniform2 = True
            offsets: list[int] = []
            pos = 0
            for flow in touched:
                li = flow.lidx
                offsets.append(pos)
                flat.extend(li)
                pos += len(li)
                if len(li) != 2:
                    uniform2 = False
            idx = np.array(flat, dtype=np.int64)
            shares = self._caps_arr[idx] / self._counts_arr[idx]
            if uniform2:
                rates = shares.reshape(k, 2).min(axis=1).tolist()
            else:
                rates = np.minimum.reduceat(
                    shares, np.array(offsets, dtype=np.int64)
                ).tolist()
        else:
            link_caps = self.link_caps
            link_flows = self.link_flows
            rates = []
            for flow in touched:
                links = flow.links
                if len(links) == 2:
                    # Fast path: the wire path always shares a TX and an RX lane.
                    a, b = links
                    ra = link_caps[a] / len(link_flows[a])
                    rb = link_caps[b] / len(link_flows[b])
                    rates.append(ra if ra < rb else rb)
                else:
                    rates.append(
                        min(link_caps[key] / len(link_flows[key]) for key in links)
                    )
        link_rate = self.link_rate
        heap = self._heap
        cancel = self.env.cancel
        # One kernel key per re-rated flow, in sorted(fids) order: the
        # sequence numbers timeout() would have taken here.
        seq = self.env.reserve(k)
        for flow, rate in zip(touched, rates):
            delta = rate - flow.rate
            if delta:
                for key in flow.links:
                    link_rate[key] += delta
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
        self._g_active.set(len(self.flows))
        flow.done.succeed()
        # Freed capacity speeds up the neighbours.
        self._rerate(self._affected(flow.links))
        self._sync()
