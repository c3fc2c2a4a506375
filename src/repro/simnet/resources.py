"""Shared-resource primitives for the simulation kernel.

* :class:`Store` — an unbounded (or bounded) FIFO queue of items; the
  building block for mailboxes, sockets and MPI matching queues.
* :class:`Resource` — capacity-limited slots (CPU cores, NIC serialization).
* :class:`SlotGate` — a counting semaphore whose capacity can be raised or
  lowered while held (per-application task-concurrency caps under the
  multi-tenant job server's fair-share scheduler).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator

from repro.simnet.engine import SimEngine
from repro.simnet.events import _PENDING, Event, SimError


class StoreGet(Event):
    """Pending get() on a :class:`Store`; triggers with the item."""

    __slots__ = ("filter",)

    def __init__(self, env: SimEngine, filt: Callable[[Any], bool] | None) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.filter = filt

    def cancel(self) -> None:
        """Withdraw the request (no-op if already satisfied)."""
        if self._value is _PENDING:
            self.fail(StoreCancelled())


class StoreCancelled(SimError):
    """A pending Store.get() was cancelled before an item arrived."""


class Store:
    """A FIFO item queue with event-based ``put``/``get``.

    ``get`` may carry a *filter*: the first queued item satisfying the
    predicate is returned (this supports MPI tag matching). Items that no
    getter wants stay queued — that is the "unexpected message queue".

    :meth:`put_nowait` / :meth:`get_nowait` are the same operations for
    callers that never wait on the outcome: they build and schedule no
    event, and share getter-FIFO order and putter admission with the
    event forms (a store may be driven through any mix of the four).

    Two invariants hold between operations. No pending getter matches a
    queued item (``_dispatch`` runs after every change that could make a
    match). And ``when_nonempty`` waiters exist only while the store is
    empty — one is parked only on an empty store, and a put that leaves
    its item queued wakes them all — so taking an item, or admitting a
    putter into the space it frees, never has anyone to wake.
    """

    def __init__(self, env: SimEngine, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        # (acceptance event or None for put_nowait, item), in arrival order.
        self._putters: Deque[tuple[Event | None, Any]] = deque()
        self._nonempty_waiters: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Queue ``item``; the returned event triggers once it is accepted."""
        ev = Event(self.env)
        if len(self.items) < self.capacity:
            ev.succeed()
            self.put_nowait(item)
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> None:
        """Queue ``item`` without an acceptance event.

        On a full bounded store the item waits its turn behind earlier
        putters and is admitted as space frees, exactly as with :meth:`put`.
        """
        items = self.items
        if len(items) >= self.capacity:
            self._putters.append((None, item))
            return
        items.append(item)
        if self._getters:
            self._dispatch()
        waiters = self._nonempty_waiters
        if waiters and items:
            # Still queued after the getters had their pick: the store is
            # observably non-empty.
            self._nonempty_waiters = []
            for ev in waiters:
                if ev._value is _PENDING:
                    ev.succeed()

    def when_nonempty(self) -> Event:
        """Event triggering when an item is queued, *without* consuming it.

        This is the selector primitive: Netty's ``Selector.select()`` must
        learn a socket became readable without draining it.
        """
        ev = Event(self.env)
        if self.items:
            ev.succeed()
        else:
            self._nonempty_waiters.append(ev)
        return ev

    def get(self, filt: Callable[[Any], bool] | None = None) -> StoreGet:
        """Take the first (matching) item; blocks the caller until one exists."""
        ev = StoreGet(self.env, filt)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def get_nowait(self, filt: Callable[[Any], bool] | None = None) -> Any | None:
        """Take and return the first (matching) item, or None if there is none.

        No getter is queued: every pending getter was already offered every
        queued item (``_dispatch`` runs after each change), so whatever is
        queued now is free for the taking.
        """
        items = self.items
        if filt is None:
            if not items:
                return None
            item = items.popleft()
        else:
            idx = self._find(filt)
            if idx is None:
                return None
            item = items[idx]
            del items[idx]
        if self._putters:
            self._admit()
            self._dispatch()
        return item

    def peek(self, filt: Callable[[Any], bool] | None = None) -> Any | None:
        """Non-destructively return the first (matching) item, or None."""
        if filt is None:
            return self.items[0] if self.items else None
        for item in self.items:
            if filt(item):
                return item
        return None

    def _dispatch(self) -> None:
        # Satisfy getters in FIFO order; a getter whose filter matches no
        # queued item stays pending without blocking later getters.
        getters = self._getters
        progressed = True
        while progressed and getters:
            progressed = False
            for getter in list(getters):
                if getter._value is not _PENDING:  # cancelled
                    getters.remove(getter)
                    progressed = True
                    continue
                idx = self._find(getter.filter)
                if idx is None:
                    continue
                item = self.items[idx]
                del self.items[idx]
                getters.remove(getter)
                getter.succeed(item)
                progressed = True
                if self._putters:
                    self._admit()

    def _admit(self) -> None:
        """Space was freed: accept waiting putters in arrival order."""
        items = self.items
        putters = self._putters
        while putters and len(items) < self.capacity:
            put_ev, put_item = putters.popleft()
            items.append(put_item)
            if put_ev is not None:
                put_ev.succeed()

    def _find(self, filt: Callable[[Any], bool] | None) -> int | None:
        if filt is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if filt(item):
                return i
        return None


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots (cores, NIC lanes).

    Usage from a process::

        req = cores.request()
        yield req
        try:
            yield env.timeout(work)
        finally:
            cores.release(req)
    """

    def __init__(self, env: SimEngine, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a slot; wakes the longest-waiting requester."""
        if req in self.users:
            self.users.remove(req)
        elif req in self.queue:
            self.queue.remove(req)
            if not req.triggered:
                req.fail(StoreCancelled())
            return
        else:
            raise SimError("release() of a request this resource never granted")
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()

    def acquire(self) -> Generator[Event, Any, Request]:
        """``yield from``-style helper returning the granted request."""
        req = self.request()
        yield req
        return req


class SlotGate:
    """A counting semaphore with an *adjustable* capacity.

    Unlike :class:`Resource`, the capacity is a soft cap that a scheduler
    may raise (waking queued requesters) or lower (taking effect as holders
    release — in-flight work is never preempted) while the gate is in use.
    ``capacity=0`` is legal and simply parks every requester.

    This is the enforcement point for per-application task-concurrency
    grants in the multi-tenant job server: an application's tasks each hold
    one gate slot for their whole lifetime, so the number of its in-flight
    tasks tracks the scheduler's current grant.
    """

    def __init__(self, env: SimEngine, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.held = 0
        self.queue: Deque[Event] = deque()

    def __len__(self) -> int:
        return self.held

    @property
    def waiting(self) -> int:
        return len(self.queue)

    def request(self) -> Event:
        """Claim one slot; the event triggers once the cap admits it."""
        ev = Event(self.env)
        if self.held < self.capacity:
            self.held += 1
            ev.succeed()
        else:
            self.queue.append(ev)
        return ev

    def release(self) -> None:
        """Return one slot, admitting the longest-waiting requester."""
        if self.held <= 0:
            raise SimError("release() on a SlotGate with no held slots")
        self.held -= 1
        self._admit()

    def cancel(self, claim: Event) -> None:
        """Give back a :meth:`request`: its slot if granted, else its place
        in the queue (a requester interrupted while it was still waiting)."""
        if claim.triggered:
            self.release()
        else:
            self.queue.remove(claim)

    def set_capacity(self, capacity: int) -> None:
        """Re-cap the gate. Raising wakes waiters; lowering never preempts."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._admit()

    def _admit(self) -> None:
        while self.queue and self.held < self.capacity:
            ev = self.queue.popleft()
            if ev.triggered:  # a cancelled/failed waiter
                continue
            self.held += 1
            ev.succeed()
