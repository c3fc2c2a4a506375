"""Channels: the Netty-side face of a connection.

A :class:`Channel` wraps a :class:`~repro.simnet.sockets.SimSocket`; its
:class:`ChannelId` is the identity MPI4Spark maps to an MPI rank at
connection establishment (paper Sec. VI-B). The default transport write
goes to the socket (NIO); the MPI transports in :mod:`repro.core` override
:meth:`Channel._transport_write` / the read path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.netty.frame import WireFrame
from repro.netty.pipeline import ChannelPipeline
from repro.simnet.events import Event
from repro.util.serialization import sizeof

if TYPE_CHECKING:  # pragma: no cover
    from repro.netty.eventloop import EventLoop
    from repro.simnet.sockets import SimSocket, SocketAddress


class ChannelId:
    """Channel identity, unique within one simulation (Netty's ChannelId).

    Numbered per :class:`~repro.simnet.engine.SimEngine`, so a run's
    channel names and handshake tags do not depend on what ran before it
    in the process.  The text is formatted once, on first use, so every
    flight event of one channel shares one string and an untraced run
    never formats it.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, value: int) -> None:
        self._value = value

    def as_long_text(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = self._text = f"channel-{self._value:08x}"
            return text

    def __hash__(self) -> int:
        return hash(self._value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChannelId) and other._value == self._value

    def __repr__(self) -> str:
        return self.as_long_text()


class Channel:
    """One endpoint of a Netty connection, bound to an event loop."""

    def __init__(self, event_loop: "EventLoop", socket: "SimSocket") -> None:
        self.event_loop = event_loop
        self.socket = socket
        self.id = ChannelId(next(event_loop.env.channel_ids))
        self.pipeline = ChannelPipeline(self)
        self.alloc = event_loop.alloc
        self.attributes: dict[str, Any] = {}
        self.active = True
        m = event_loop.env.metrics
        self._c_socket_messages = m.counter("transport.socket.messages")
        self._c_socket_bytes = m.counter("transport.socket.bytes")

    # -- addressing ---------------------------------------------------------
    @property
    def remote_address(self) -> "SocketAddress":
        return self.socket.remote

    @property
    def env(self):
        return self.event_loop.env

    # -- I/O ------------------------------------------------------------------
    def write_and_flush(self, msg: Any) -> "Event":
        """Send ``msg`` through the outbound pipeline; returns the write promise."""
        promise = Event(self.env)
        self.pipeline.write(msg, promise)
        return promise

    def _transport_write(self, msg: Any, promise: "Event") -> None:
        """Default NIO transport: everything goes over the Java socket."""
        nbytes = self._wire_size(msg)
        self.socket.send(msg, nbytes)
        self._c_socket_messages.value += 1.0
        self._c_socket_bytes.value += nbytes
        if not promise.triggered:
            promise.complete()

    @staticmethod
    def _wire_size(msg: Any) -> int:
        if isinstance(msg, WireFrame):
            return msg.nbytes
        return sizeof(msg)

    def close(self) -> None:
        if self.active:
            self.active = False
            self.socket.close()
            self.event_loop.deregister(self)
            self.pipeline.fire_channel_inactive()
            # Sweep spans the pipeline handlers didn't close (e.g. responses
            # encoded on a dying server channel that will never arrive) so a
            # dead channel can't leave dangling sends in the flight log.
            causal = self.env.causal
            if causal.enabled and causal.flight.open_on(self.id.as_long_text()):
                causal.channel_closed(self.id.as_long_text(), "channel closed")
