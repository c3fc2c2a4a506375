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
    (accept); the one of the two that is set is the interest.

    ``source`` is the store the interest watches: the channel socket's
    ``inbound`` segments or the listener's ``backlog``. The key is ready
    (readable or acceptable) exactly while ``source.items`` is non-empty,
    and its event loop drains that list in place.
    """

    source: Store
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
        key = SelectionKey(channel.socket.inbound, channel=channel)
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
            listener.backlog,
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
        """The keys that are readable or acceptable (their source holds an
        item), in registration order.

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
            if key.source.items:
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
        self._wakeups.items.clear()
        if ready:
            return ready
        yield from self.park()
        return self._ready()

    def wakeup(self) -> None:
        """Unblock a pending select (NIO Selector.wakeup)."""
        self._wakeups.put_nowait(None)

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

        A spent waiter is detached and replaced in line: a store's
        ``when_nonempty`` event is never processed at creation, so the
        park's signal goes straight onto its callback list.
        """
        signal = self._park_signal
        for key in self.keys:
            waiter = key.waiter
            if waiter is None or waiter._value is not _PENDING:
                if waiter is not None and waiter.callbacks:
                    waiter.callbacks.clear()  # the staleness guard (_detach)
                waiter = key.waiter = key.source.when_nonempty()
                waiter.callbacks.append(signal)
        waiters = self._park_waiters
        for row in rows:
            source = row[0]
            waiter = waiters.get(source)
            if waiter is None or waiter._value is not _PENDING:
                self._detach(waiter)
                waiter = waiters[source] = make_row(*row[1:])
                waiter.add_callback(signal)
        wakeups = self._wakeups
        waiter = waiters.get(wakeups)
        if waiter is None or waiter._value is not _PENDING:
            self._detach(waiter)
            waiter = waiters[wakeups] = wakeups.when_nonempty()
            waiter.callbacks.append(signal)
        self._park = Event(self.env)
        yield self._park
        wakeups.items.clear()

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
