"""The NIO selector (paper Fig. 5).

Netty's event loop revolves around ``Selector.select(..)``: it blocks until
a registered channel changes state (readable / acceptable) or a wakeup is
issued, then the loop handles ready keys and queued tasks. MPI4Spark-Basic
replaces the blocking ``select`` with ``selectNow`` + ``MPI_Iprobe``
polling — which is why :meth:`Selector.select_now` exists as a first-class
operation and counts its invocations (the polling tax the paper measures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.simnet.events import _PENDING, Event
from repro.simnet.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.netty.channel import Channel
    from repro.simnet.engine import SimEngine
    from repro.simnet.sockets import ListeningSocket

OP_READ = 1
OP_ACCEPT = 16


@dataclass(eq=False, slots=True)
class SelectionKey:
    """A registered interest: either a connected channel or a listener."""

    ops: int
    channel: "Channel | None" = None
    listener: "ListeningSocket | None" = None
    # server-side: how to initialize accepted child channels
    child_initializer: Callable[["Channel"], None] | None = None
    # server-side: loop group accepted channels are spread over (None =
    # register them on the accepting loop itself)
    child_group: Any = None
    # The key's pending readiness event (see Selector.park); it lives and
    # dies with the key, so a later key can never inherit it.
    waiter: Event | None = field(default=None, repr=False)

    def is_readable(self) -> bool:
        return (
            self.ops & OP_READ != 0
            and self.channel is not None
            and self.channel.socket.readable
        )

    def is_acceptable(self) -> bool:
        return (
            self.ops & OP_ACCEPT != 0
            and self.listener is not None
            and self.listener.acceptable
        )

    def when_ready(self) -> Event:
        """A fresh non-consuming event for the key's next readiness."""
        if self.channel is not None:
            return self.channel.socket.when_readable()
        return self.listener.when_acceptable()


class Selector:
    """Tracks registered keys and provides select / selectNow."""

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.keys: list[SelectionKey] = []
        self._wakeups: Store = Store(env)
        # What a blocked select (or the mpi-basic idle park) waits on, and
        # the pending waiters of its non-key sources (source -> event).
        self._park: Event | None = None
        self._park_waiters: dict[Any, Event] = {}
        # Every pending waiter's one callback, bound once per selector.
        self._park_signal = self._on_park_signal
        self.select_calls = 0
        self.select_now_calls = 0

    # -- registration ------------------------------------------------------
    def register_channel(self, channel: "Channel") -> SelectionKey:
        for existing in self.keys:
            if existing.channel is channel:
                raise ValueError(
                    f"channel {channel.id} already registered with this selector"
                )
        key = SelectionKey(ops=OP_READ, channel=channel)
        self.keys.append(key)
        self.wakeup()  # a blocked select must notice the new registration
        return key

    def register_acceptor(
        self,
        listener: "ListeningSocket",
        child_initializer: Callable[["Channel"], None],
        child_group: Any = None,
    ) -> SelectionKey:
        key = SelectionKey(
            ops=OP_ACCEPT,
            listener=listener,
            child_initializer=child_initializer,
            child_group=child_group,
        )
        self.keys.append(key)
        self.wakeup()
        return key

    def deregister(self, channel: "Channel") -> None:
        kept = []
        for key in self.keys:
            if key.channel is channel:
                self._detach(key.waiter)
                key.waiter = None
            else:
                kept.append(key)
        self.keys = kept

    # -- selection -----------------------------------------------------------
    def _ready(self) -> list[SelectionKey]:
        """The keys that are readable or acceptable, in registration order.

        A key whose park waiter is still pending is skipped unchecked: the
        waiter came from its store's ``when_nonempty`` while the store was
        empty, and the only thing that queues an item (``put_nowait``)
        triggers every such waiter on the spot. Pending waiter => empty
        source => neither readable nor acceptable.
        """
        ready = []
        for key in self.keys:
            waiter = key.waiter
            if waiter is not None and waiter._value is _PENDING:
                continue
            if key.is_readable() or key.is_acceptable():
                ready.append(key)
        return ready

    def select_now(self) -> list[SelectionKey]:
        """Non-blocking poll of ready keys (NIO selectNow)."""
        self.select_now_calls += 1
        return self._ready()

    def select(self, timeout: float | None = None) -> Generator:
        """Blocking select (generator): waits until a key is ready, a
        wakeup arrives (the loop has tasks to run: no keys are returned),
        or ``timeout`` elapses. Returns ready keys."""
        self.select_calls += 1
        ready = self._ready()
        self._drain_wakeups()
        if ready:
            return ready
        yield from self.park(timeout)
        return self._ready()

    def wakeup(self) -> None:
        """Unblock a pending select (NIO Selector.wakeup)."""
        self._wakeups.put_nowait(None)

    def _drain_wakeups(self) -> None:
        while self._wakeups.items:
            self._wakeups.get_nowait()

    # -- parking -------------------------------------------------------------
    def park(
        self,
        timeout: float | None = None,
        extra: Iterable = (),
        rows: Iterable[tuple] = (),
        make_row: Callable[..., Event] | None = None,
    ) -> Generator:
        """Block until a key, the wake-up queue or another source signals.

        ``extra`` yields ``(source, make)`` pairs, ``make()`` building the
        non-consuming event of one more long-lived source. ``rows`` are
        more such sources that share one factory: each row is ``(source,
        *args)`` and ``make_row(*args)`` builds its event, so a caller
        keeps no per-source factory object. Sources are armed keys first,
        then ``rows``, then ``extra``, then the wake-up queue. Every
        source keeps one pending waiter while it stays quiet, so a park
        re-arms only what fired since the last one and waits on one plain
        event. A waiter made for an already-ready source triggers at
        creation and wakes the park through the heap like any other.
        """
        arm = self._arm_park_waiter
        for key in self.keys:
            waiter = key.waiter
            if waiter is None or waiter._value is not _PENDING:
                key.waiter = arm(waiter, key.when_ready)
        waiters = self._park_waiters
        for row in rows:
            source = row[0]
            waiter = waiters.get(source)
            if waiter is None or waiter._value is not _PENDING:
                self._detach(waiter)
                waiter = waiters[source] = make_row(*row[1:])
                waiter.add_callback(self._park_signal)
        for source, make in extra:
            waiter = waiters.get(source)
            if waiter is None or waiter._value is not _PENDING:
                waiters[source] = arm(waiter, make)
        wakeups = self._wakeups
        waiter = waiters.get(wakeups)
        if waiter is None or waiter._value is not _PENDING:
            waiters[wakeups] = arm(waiter, wakeups.when_nonempty)
        park = self._park = Event(self.env)
        if timeout is not None:
            park = self.env.any_of((park, self.env.timeout(timeout)))
        yield park
        self._park = None  # still set only if the timeout won
        self._drain_wakeups()

    def _arm_park_waiter(self, spent: Event | None, make: Callable[[], Event]) -> Event:
        """Replace a source's spent waiter with a fresh one wired to the park."""
        self._detach(spent)
        waiter = make()
        waiter.add_callback(self._park_signal)
        return waiter

    @staticmethod
    def _detach(waiter: Event | None) -> None:
        """Staleness guard: a waiter replaced before the heap dispatched
        it (it fired during a busy round), or whose key is gone, must never
        wake a later park — a spurious iteration moves simulated time."""
        if waiter is not None and waiter.callbacks is not None:
            waiter.callbacks.clear()

    def _on_park_signal(self, _waiter: Event) -> None:
        park = self._park
        if park is not None:
            self._park = None  # the first signal decides; the rest find nobody
            park.succeed()
