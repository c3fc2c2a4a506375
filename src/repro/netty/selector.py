"""The NIO selector (paper Fig. 5).

Netty's event loop revolves around ``Selector.select(..)``: it blocks until
a registered channel changes state (readable / acceptable) or a wakeup is
issued, then the loop handles the ready keys. MPI4Spark-Basic replaces the
blocking ``select`` with ``selectNow`` + ``MPI_Iprobe`` polling — which is
why :meth:`Selector.select_now` exists as a first-class operation; the
loop counts its rounds (the polling tax the paper measures).
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


@dataclass(eq=False, slots=True)
class SelectionKey:
    """A registered interest: a connected channel (read) or a listener
    (accept); the one of the two that is set is the interest."""

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
        return self.channel is not None and self.channel.socket.readable

    def is_acceptable(self) -> bool:
        return self.listener is not None and self.listener.acceptable

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

    # -- registration ------------------------------------------------------
    def register_channel(self, channel: "Channel") -> SelectionKey:
        for existing in self.keys:
            if existing.channel is channel:
                raise ValueError(
                    f"channel {channel.id} already registered with this selector"
                )
        key = SelectionKey(channel=channel)
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
        return self._ready()

    def select(self) -> Generator:
        """Blocking select (generator): waits until a key is ready or a
        wakeup arrives (a stop or a new registration: no keys may be
        ready). Returns ready keys."""
        ready = self._ready()
        self._drain_wakeups()
        if ready:
            return ready
        yield from self.park()
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
        rows: Iterable[tuple] = (),
        make_row: Callable[..., Event] | None = None,
    ) -> Generator:
        """Block until a key, the wake-up queue or another source signals.

        ``rows`` are long-lived sources beside the keys that share one
        factory: each row is ``(source, *args)`` and ``make_row(*args)``
        builds its non-consuming event, so a caller keeps no per-source
        factory object. Sources are armed keys first, then ``rows``, then
        the wake-up queue. Every source keeps one pending waiter while it
        stays quiet, so a park re-arms only what fired since the last one
        and waits on one plain event. A waiter made for an already-ready
        source triggers at creation and wakes the park through the heap
        like any other.
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
        wakeups = self._wakeups
        waiter = waiters.get(wakeups)
        if waiter is None or waiter._value is not _PENDING:
            waiters[wakeups] = arm(waiter, wakeups.when_nonempty)
        self._park = Event(self.env)
        yield self._park
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
