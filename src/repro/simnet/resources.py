"""Shared-resource primitives for the simulation kernel.

* :class:`Store` — an unbounded FIFO queue of items; the building block
  for socket buffers, accept backlogs, event-loop task queues and MPI pipes.
* :class:`SlotGate` — a counting semaphore whose capacity can be raised or
  lowered while held (executor task slots, and per-application
  task-concurrency caps under the multi-tenant job server's fair-share
  scheduler).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.simnet.engine import SimEngine
from repro.simnet.events import Event, SimError


class Store:
    """An unbounded FIFO item queue.

    :meth:`get` returns an event that triggers with the oldest item — at
    once if one is queued. :meth:`put_nowait` / :meth:`get_nowait` are for
    callers that never wait on the outcome: they build and schedule no
    event. ``items`` is the queue itself, a list with the oldest item
    first, and a caller may drain it in place.

    The queues are lists, not deques: a cluster holds one store per
    socket end and per MPI pipe, an empty deque costs 760 B against 56 B
    for an empty list, and no store gets deep enough (at most 70 items in
    any benchmark workload) for ``pop(0)`` to cost more than the bytes it
    saves (DESIGN §10 rule 8).

    Getters and ``when_nonempty`` waiters wait only while ``items`` is
    empty. So a put hands its item to the longest-waiting getter, or else
    queues it and wakes the waiters, and taking an item never has anyone
    to wake. Their lists are made on first use (None until then): most
    stores only ever see one kind of waiter.
    """

    __slots__ = ("env", "items", "_getters", "_nonempty_waiters")

    def __init__(self, env: SimEngine) -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: list[Event] | None = None
        self._nonempty_waiters: list[Event] | None = None

    def __len__(self) -> int:
        return len(self.items)

    def put_nowait(self, item: Any) -> None:
        """Queue ``item``, or hand it to the longest-waiting getter."""
        if self._getters:
            self._getters.pop(0).succeed(item)
            return
        self.items.append(item)
        waiters = self._nonempty_waiters
        if waiters:
            self._nonempty_waiters = None
            for ev in waiters:
                ev.succeed()

    def when_nonempty(self) -> Event:
        """Event triggering when an item is queued, *without* consuming it.

        This is the selector primitive: Netty's ``Selector.select()`` must
        learn a socket became readable without draining it.
        """
        ev = Event(self.env)
        if self.items:
            ev.succeed()
        elif self._nonempty_waiters is None:
            self._nonempty_waiters = [ev]
        else:
            self._nonempty_waiters.append(ev)
        return ev

    def get(self) -> Event:
        """Take the oldest item; the event waits for a put if there is none."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        elif self._getters is None:
            self._getters = [ev]
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any | None:
        """Take and return the oldest item, or None if there is none."""
        items = self.items
        return items.pop(0) if items else None


class SlotGate:
    """A counting semaphore with an *adjustable* capacity.

    The capacity is a soft cap that a scheduler may raise (waking queued
    requesters) or lower (taking effect as holders release — in-flight
    work is never preempted) while the gate is in use. ``capacity=0`` is
    legal and simply parks every requester.

    A task holds one executor slot, and under the multi-tenant job server
    one slot of its application's gate, for its whole lifetime: the number
    of an application's in-flight tasks tracks the scheduler's current
    grant.
    """

    def __init__(self, env: SimEngine, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.held = 0
        # A deque, unlike Store's lists: there is one gate per executor
        # (and per job-server app), not one per pair, and a gate can queue
        # a whole stage's tasks (DESIGN §10 rule 8).
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
        in the queue (a requester interrupted while it was still waiting).
        A withdrawn claim never triggers."""
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
            self.held += 1
            self.queue.popleft().succeed()
