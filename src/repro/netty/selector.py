"""The NIO selector (paper Fig. 5).

Netty's event loop revolves around ``Selector.select(..)``: it blocks until
a registered channel changes state (readable / acceptable) or a wakeup is
issued, then the loop handles the ready keys. MPI4Spark-Basic replaces the
blocking ``select`` with ``selectNow`` + ``MPI_Iprobe`` polling — which is
why :meth:`Selector.select_now` exists as a first-class operation; the
loop counts its rounds (the polling tax the paper measures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.simnet.events import Event
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
    and its event loop drains that list in place. While the key is
    registered, the source's ``watcher`` is its selector's park signal.
    """

    source: Store
    channel: "Channel | None" = None
    listener: "ListeningSocket | None" = None
    # server-side: how to initialize accepted child channels
    child_initializer: Callable[["Channel"], None] | None = None
    # server-side: loop group accepted channels are spread over (None =
    # register them on the accepting loop itself)
    child_group: Any = None


class Selector:
    """Tracks registered keys and provides select / selectNow.

    A blocked select (or the mpi-basic idle park) waits on one plain
    event, ``_park``. Every key's source and the wake-up queue are watched
    stores (:attr:`Store.watcher`), and the mpi-basic loop's poll rows are
    watched MPI probe buckets (:attr:`MatchingEngine.watchers`): a put or
    a delivery that queues an item calls the one bound ``_on_park_signal``
    in line, which succeeds the current park if there is one and does
    nothing while the loop is busy — the loop's next round reads the
    sources themselves.
    """

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.keys: list[SelectionKey] = []
        self._wakeups: Store = Store(env)
        # What a blocked select (or the mpi-basic idle park) waits on.
        self._park: Event | None = None
        # Every watcher's one callback, bound once per selector.
        self._park_signal = self._on_park_signal
        self._wakeups.watcher = self._park_signal

    # -- registration ------------------------------------------------------
    def register_channel(self, channel: "Channel") -> SelectionKey:
        for existing in self.keys:
            if existing.channel is channel:
                raise ValueError(
                    f"channel {channel.id} already registered with this selector"
                )
        key = SelectionKey(channel.socket.inbound, channel=channel)
        key.source.watcher = self._park_signal
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
        key.source.watcher = self._park_signal
        self.keys.append(key)
        self.wakeup()
        return key

    def deregister(self, channel: "Channel") -> None:
        kept = []
        for key in self.keys:
            if key.channel is channel:
                # A deregistered channel's store must never wake a later
                # park (a spurious iteration moves simulated time).
                key.source.watcher = None
            else:
                kept.append(key)
        self.keys = kept

    # -- selection -----------------------------------------------------------
    def _ready(self) -> list[SelectionKey]:
        """The keys that are readable or acceptable (their source holds an
        item), in registration order."""
        ready = []
        for key in self.keys:
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
    def park(self) -> Generator:
        """Block until a watched source signals: a key's store, the wake-up
        queue or an mpi-basic poll row's bucket.

        Every source signals through its watcher, so a park arms nothing.
        It expects its sources empty (``select`` and the mpi-basic loop
        park only after a round found none ready, with no yield since),
        and it succeeds at once if the wake-up queue holds an item: a
        wake-up that arrived while the loop was busy wakes its next park.
        """
        park = self._park = Event(self.env)
        wakeups = self._wakeups
        if wakeups.items:
            self._park_signal(wakeups)
        yield park
        wakeups.items.clear()

    def _on_park_signal(self, _source: Any) -> None:
        """A watched store or probe bucket queued an item."""
        park = self._park
        if park is not None:
            self._park = None  # the first signal decides; the rest find nobody
            park.succeed()
