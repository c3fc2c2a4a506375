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
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.simnet.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.netty.channel import Channel
    from repro.simnet.engine import SimEngine
    from repro.simnet.events import Event
    from repro.simnet.sockets import ListeningSocket

OP_READ = 1
OP_ACCEPT = 16


@dataclass
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


class Selector:
    """Tracks registered keys and provides select / selectNow."""

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.keys: list[SelectionKey] = []
        self._wakeups: Store = Store(env)
        self._pending_events: dict[int, "Event"] = {}
        self._pending_wake: "Event | None" = None
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
        self.keys = [k for k in self.keys if k.channel is not channel]

    # -- selection -----------------------------------------------------------
    def select_now(self) -> list[SelectionKey]:
        """Non-blocking poll of ready keys (NIO selectNow)."""
        self.select_now_calls += 1
        return [k for k in self.keys if k.is_readable() or k.is_acceptable()]

    def select(self, timeout: float | None = None) -> Generator:
        """Blocking select (generator): waits until a key is ready, a
        wakeup arrives, or ``timeout`` elapses. Returns ready keys."""
        self.select_calls += 1
        ready = self.select_now()
        self.select_now_calls -= 1  # internal poll, not a user selectNow
        self._drain_wakeups()
        if ready:
            return ready

        while True:
            events = []
            for i, key in enumerate(self.keys):
                ev = self._pending_events.get(id(key))
                if ev is None or ev.triggered:
                    if key.channel is not None:
                        ev = key.channel.socket.when_readable()
                    elif key.listener is not None:
                        ev = key.listener.when_acceptable()
                    else:  # pragma: no cover - defensive
                        continue
                    self._pending_events[id(key)] = ev
                events.append(ev)
            # Like the per-key events, the wake-up event is reused until it
            # fires: a select decided by a ready key must not leave one more
            # waiter parked on the wake-up queue.
            wake = self._pending_wake
            if wake is None or wake.triggered:
                wake = self._pending_wake = self._wakeups.when_nonempty()
            events.append(wake)
            if timeout is not None:
                events.append(self.env.timeout(timeout))
            yield self.env.any_of(events)
            self._drain_wakeups()
            ready = self.select_now()
            self.select_now_calls -= 1
            if ready or timeout is not None:
                return ready
            # A wakeup (e.g. task submission) with nothing readable: return
            # control so the loop can run its tasks.
            return ready

    def wakeup(self) -> None:
        """Unblock a pending select (NIO Selector.wakeup)."""
        self._wakeups.put_nowait(None)

    def _drain_wakeups(self) -> None:
        while self._wakeups.items:
            self._wakeups.get_nowait()
