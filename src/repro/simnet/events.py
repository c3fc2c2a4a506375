"""Discrete-event kernel: events, timeouts, processes, condition events.

This is a from-scratch simpy-style kernel (simpy is not available offline).
Simulation *processes* are Python generators that ``yield`` events; the
engine resumes a process when the event it waits on triggers. The MPI
runtime, the Netty event loops and the Spark executors in this reproduction
are all simulation processes built on this kernel.

Design notes:

* An :class:`Event` triggers exactly once, either with a value
  (:meth:`Event.succeed`) or an exception (:meth:`Event.fail`). Failing
  events propagate into the waiting generator via ``throw`` so simulation
  code uses ordinary ``try/except``.
* :class:`Process` is itself an event that triggers when its generator
  returns (value = the generator's return value) — processes can wait on
  each other, which is how ``join`` semantics work everywhere above.
* Determinism: events scheduled for the same timestamp fire in scheduling
  order (a monotone sequence number breaks heap ties), so simulations are
  exactly reproducible.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine

# Sentinel distinguishing "not yet triggered" from a None value.
_PENDING = object()


class SimError(RuntimeError):
    """Base class for kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries the interrupter's reason (any object).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and schedule its callbacks."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        heappush(env._heap, (env.now, env._seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        env = self.env
        env._seq += 1
        heappush(env._heap, (env.now, env._seq, self))
        return self

    def complete(self, value: Any = None) -> "Event":
        """:meth:`succeed` minus the dispatch nobody would see: with no
        callback attached the event is marked processed in place, never
        scheduled, and a later ``yield`` on it resumes at once. For
        outcomes that are usually ignored (a write promise)."""
        if self.callbacks:
            return self.succeed(value)
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def fire(self, value: Any = None) -> None:
        """:meth:`succeed` and the dispatch in one: the event is processed
        now and its callbacks run in line, before this returns. For a
        hand-off whose waiter would otherwise resume from a zero-delay heap
        entry doing no modelled work (a store's waiting getter)."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this is what lets a process wait on an event that fired in the past
        (e.g. joining an already-finished process).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future.

    Timeouts are by far the most-allocated event type (every simulated
    cost charge is one), so the engine keeps a free list:
    ``SimEngine.timeout`` and ``SimEngine.timeout_at`` re-initialise a
    recycled instance themselves in place of ``__init__``.  A pending
    timeout can also be cancelled via ``SimEngine.cancel`` — the
    ``_dead`` flag tombstones its heap entry, and its callbacks never
    run.  Neither a tombstone nor a pooled instance keeps its value: read
    it from the callback, not afterwards.
    """

    __slots__ = ("_dead",)

    def __init__(self, env: "SimEngine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._dead = False
        env._seq += 1
        heappush(env._heap, (env.now + delay, env._seq, self))


class Initialize(Event):
    """Internal: kicks off a new process on the next scheduler step."""

    __slots__ = ()

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = None
        env._seq += 1
        heappush(env._heap, (env.now, env._seq, self))


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an event: it triggers with the generator's return value,
    or fails with the exception that escaped the generator.
    """

    __slots__ = ("gen", "name", "_target", "_interrupts", "_resume_cb")

    def __init__(
        self,
        env: "SimEngine",
        gen: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(gen, "throw"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._interrupts: list[Interrupt] | None = None  # made on first use
        # The one callback this process ever registers, bound once instead
        # of once per yield. It makes the live process a reference cycle of
        # its own, so termination drops it.
        self._resume_cb = self._resume
        init = Initialize(env)
        init.callbacks.append(self._resume_cb)
        self._target: Event | None = init

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._value is not _PENDING:
            raise SimError(f"cannot interrupt finished process {self.name}")
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        target = self._target
        if target is not None and not target.triggered:
            # Detach from the waited-on event and wake immediately. The
            # callback must go too: if the old target triggers later (an
            # item or a signal another process delivers after the
            # interrupt), it would resume this process a second time.
            if target.callbacks is not None and self._resume_cb in target.callbacks:
                target.callbacks.remove(self._resume_cb)
            wakeup = Event(self.env)
            wakeup._ok = True
            wakeup._value = None
            self.env._schedule(wakeup)
            wakeup.add_callback(self._resume_cb)
            self._target = wakeup

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not _PENDING:
            return  # stale callback from an event this process detached from
        gen = self.gen
        while True:
            try:
                if self._interrupts:
                    exc = self._interrupts.pop(0)
                    next_event = gen.throw(exc)
                elif event._ok:
                    next_event = gen.send(event._value)
                else:
                    next_event = gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                break
            except BaseException as exc:
                # Includes an unhandled Interrupt: the process terminates
                # "with cause".
                self._ok = False
                self._value = exc
                break

            # EAFP: everything yieldable has a ``callbacks`` slot; anything
            # else is a programming error surfaced as a SimError failure.
            try:
                cbs = next_event.callbacks
            except AttributeError:
                self._ok = False
                self._value = SimError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                break

            self._target = next_event
            if cbs is None:
                # Already-processed events resume synchronously (loop again).
                event = next_event
                continue
            cbs.append(self._resume_cb)
            return

        # Terminated: let go of what only a live process needs, then
        # schedule ourselves so joiners wake.
        env = self.env
        self._resume_cb = self._target = None
        env._seq += 1
        heappush(env._heap, (env.now, env._seq, self))


class Condition(Event):
    """Composite event over several sub-events (see :class:`AllOf`/:class:`AnyOf`).

    Completion is tracked through callbacks (``processed``), not the
    ``triggered`` flag — :class:`Timeout` pre-sets its value at construction,
    so ``triggered`` does not mean "has already happened".

    A decided condition detaches: it takes its callback off every sub-event
    that has not been processed yet, so a long-lived pending event (an idle
    selector key) never accumulates the callbacks — and with them the
    conditions, their other sub-events and their waiters — of every wait
    that was decided by something else. :class:`Process` sub-events are the
    exception and stay attached: a decided condition is still the joiner of
    a process it raced, and the engine raises for a failed process that
    nobody joined.
    """

    __slots__ = ("events", "_needed", "_done")

    _wait_all = True  # AnyOf overrides: one sub-event decides

    def __init__(self, env: "SimEngine", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.events = events = tuple(events)
        # (event, value) pairs captured at fire time: a Timeout sub-event
        # may be recycled (engine free list) before the condition completes,
        # so its _value cannot be read later.
        self._done: list[tuple[Event, Any]] = []
        if not events:
            self._value = {}
            env._schedule(self)
            return
        for ev in events:
            if ev.env is not env:
                raise SimError("condition mixes events from different engines")
        self._needed = len(events) if self._wait_all else 1
        callback = self._on_sub_event
        for ev in events:
            callbacks = ev.callbacks
            if callbacks is not None:
                callbacks.append(callback)
                continue
            callback(ev)  # already processed: it counts now
            if self._value is not _PENDING:
                # Decided on the spot: attaching to the rest would undo
                # the detach.
                break

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self._done.append((event, event._value))
            self._needed -= 1
            if self._needed > 0:
                return
            self.succeed(dict(self._done))
        # Decided: detach from whatever has not fired yet.
        callback = self._on_sub_event
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is not None and not isinstance(ev, Process):
                try:
                    callbacks.remove(callback)
                except ValueError:
                    # Never attached (decided during construction), or a
                    # Timeout that fired for us and was recycled since.
                    pass


class AllOf(Condition):
    """Triggers when *all* sub-events have triggered (fails fast on failure)."""

    __slots__ = ()


class AnyOf(Condition):
    """Triggers when *any* sub-event triggers."""

    __slots__ = ()

    _wait_all = False
