"""The simulation engine: virtual clock + event scheduler.

A :class:`SimEngine` owns the event heap and the ``now`` clock. All
substrates (MPI runtime, Netty event loops, Spark executors, NIC models)
share one engine per simulated cluster.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappush
from typing import Any, Generator, Iterable

from repro.simnet.events import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimError,
    Timeout,
)


class EmptySchedule(SimError):
    """Raised by ``run(until=event)`` when no events remain and the event
    has not fired: nothing left could ever trigger it."""


class SimEngine:
    """Virtual-time discrete-event scheduler.

    >>> env = SimEngine()
    >>> def hello(env):
    ...     yield env.timeout(2.5)
    ...     return "done at %g" % env.now
    >>> p = env.process(hello(env))
    >>> env.run()
    >>> p.value
    'done at 2.5'
    """

    # Upper bound on the Timeout free list; beyond this, recycled instances
    # are simply dropped for the GC (bounds memory under timer storms).
    _POOL_MAX = 4096

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = start_time
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._timeout_pool: list[Timeout] = []
        self._n_dead = 0  # tombstoned (cancelled) entries still in the heap
        self.events_processed = 0  # lifetime dispatch count (read by bench/)
        # Numbers this simulation's Netty channels (ChannelId) and its
        # unnamed event loops.
        self.channel_ids = itertools.count(1)
        self.loop_ids = itertools.count(1)
        # Observability (repro.obs): the registry is always live — its
        # counters are cheap enough to leave on — while causal tracing
        # stays a shared no-op until a run opts in (obs_causal=True),
        # which swaps in a real CausalTracer. Its flight recording is the
        # one event model: the Chrome trace and the text timeline are
        # exporters over it (repro.obs.tracer).
        from repro.obs.causal import NULL_CAUSAL
        from repro.obs.registry import MetricsRegistry

        self.metrics = MetricsRegistry(self)
        self.causal = NULL_CAUSAL

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, event))

    def cancel(self, timeout: Timeout) -> None:
        """Cancel a pending :class:`Timeout`: its callbacks never run.

        The heap entry stays behind as a tombstone — popped-and-skipped by
        the run loop (advancing the clock exactly as the old no-op callback
        did) — and the heap is compacted in place once tombstones outnumber
        live entries. Cancelling an already-fired or already-cancelled
        timeout is a no-op. The tombstone keeps nothing alive: it drops
        the timeout's value.
        """
        if timeout.callbacks is None or timeout._dead:
            return
        timeout._dead = True
        timeout._value = None
        self._n_dead += 1
        if self._n_dead > 64 and self._n_dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned heap entries, recycling their Timeout objects.

        Entries keep their ``(when, seq)`` keys, so heapify preserves the
        exact pop order of the surviving events.
        """
        pool = self._timeout_pool
        heap = self._heap
        live = []
        for entry in heap:
            ev = entry[2]
            if type(ev) is Timeout and ev._dead:
                ev._dead = False
                if len(pool) < self._POOL_MAX:
                    pool.append(ev)
            else:
                live.append(entry)
        # In place: the run loop holds a local alias to this exact list.
        heap[:] = live
        heapq.heapify(heap)
        self._n_dead = 0

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the schedule drains, ``until`` time passes, or an
        ``until`` event triggers. Returns the event's value in that case.

        Unhandled process failures propagate out of ``run`` so tests see
        real tracebacks instead of hung simulations.
        """
        stop_event: Event | None = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(f"until={stop_time} is in the past (now={self.now})")

        # Hot loop: locals for everything touched per event, tombstone
        # skipping for cancelled timers, and batched dispatch of events
        # sharing a timestamp (the stop horizon is checked once per batch —
        # equal timestamps cannot exceed it; the stop *event* can only be
        # processed by this loop popping it, which returns directly).
        heap = self._heap
        heappop = heapq.heappop
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        timeout_cls = Timeout
        n_dispatched = 0
        try:
            while heap:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                when = heap[0][0]
                if when > stop_time:
                    self.now = stop_time
                    break
                self.now = when
                while heap and heap[0][0] == when:
                    event = heappop(heap)[2]
                    if event.__class__ is timeout_cls and event._dead:
                        # Cancelled timer: the clock advanced, nothing runs.
                        self._n_dead -= 1
                        event._dead = False
                        if len(pool) < pool_max:
                            pool.append(event)
                        continue
                    n_dispatched += 1
                    callbacks, event.callbacks = event.callbacks, None
                    for cb in callbacks or ():
                        cb(event)
                    if not event._ok and not callbacks and isinstance(event, Process):
                        # A process died and nobody is joining it: surface it.
                        raise event._value
                    if stop_event is not None and event is stop_event:
                        if not event._ok:
                            raise event._value
                        return event._value
                    if event.__class__ is timeout_cls and len(pool) < pool_max:
                        # Fired and fully dispatched: back to the free list,
                        # which keeps nothing alive.
                        event._value = None
                        pool.append(event)
        finally:
            self.events_processed += n_dispatched
        if stop_event is not None:
            # Reached when the loop broke (event already processed) or the
            # schedule drained; the in-loop pop of the event returns above.
            if not stop_event.triggered:
                raise EmptySchedule(
                    "run(until=event): schedule drained before event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != float("inf") and stop_time > self.now:
            # The schedule drained before the horizon: time still passes.
            self.now = stop_time
        return None

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` firing ``delay`` from now with ``value``."""
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        # Re-initialise a recycled instance (same contract as
        # Timeout.__init__; ``_ok`` stays True and ``_dead`` False on
        # every path into the pool).
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._value = value
        timeout.delay = delay
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, timeout))
        return timeout

    def reserve(self, n: int) -> int:
        """Reserve ``n`` consecutive heap sequence numbers; return the first.

        A key ``(when, seq)`` built from a reserved ``seq`` sorts exactly
        where a :meth:`timeout` made at reservation time would have, so a
        caller can hold many such keys and push (:meth:`timeout_at`) only
        the ones that come due, in any order and at any later moment
        before their time, without changing what the heap pops.
        """
        first = self._seq + 1
        self._seq += n
        return first

    def timeout_at(self, when: float, seq: int, value: Any = None) -> Timeout:
        """A :class:`Timeout` at the heap key ``(when, seq)``, where ``seq``
        came from :meth:`reserve` and has not been pushed before."""
        if when < self.now or seq > self._seq:
            raise ValueError(
                f"key ({when}, {seq}) was not reserved or is in the past "
                f"(now={self.now})"
            )
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
        else:
            # Timeout.__init__ would push at a fresh key.
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout._ok = True
            timeout._dead = False
        timeout.callbacks = []
        timeout._value = value
        timeout.delay = when - self.now
        heappush(self._heap, (when, seq, timeout))
        return timeout

    def process(
        self, gen: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)
