"""Channel handlers and handler contexts (Netty's extension points).

Inbound events (connection active, message read, connection closed) travel
head → tail; outbound operations (write) travel tail → head, ending at the
channel's transport. MPI4Spark-Optimized hooks exactly here: its header-
parsing handlers (paper Fig. 7) sit in these pipelines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.netty.channel import Channel
    from repro.netty.pipeline import ChannelPipeline
    from repro.simnet.events import Event


class ChannelHandler:
    """Base marker; concrete handlers override inbound/outbound callbacks.

    It holds no state, so a subclass that declares ``__slots__`` really
    drops its ``__dict__``, which matters for handlers made once per
    connection.
    """

    __slots__ = ()

    def handler_added(self, ctx: "HandlerContext") -> None:
        """Called when the handler joins a pipeline."""

    # -- inbound -------------------------------------------------------------
    def channel_active(self, ctx: "HandlerContext") -> None:
        ctx.fire_channel_active()

    def channel_read(self, ctx: "HandlerContext", msg: Any) -> None:
        ctx.fire_channel_read(msg)

    def channel_inactive(self, ctx: "HandlerContext") -> None:
        ctx.fire_channel_inactive()

    def exception_caught(self, ctx: "HandlerContext", exc: BaseException) -> None:
        ctx.fire_exception_caught(exc)

    # -- outbound ------------------------------------------------------------
    def write(self, ctx: "HandlerContext", msg: Any, promise: "Event") -> None:
        ctx.write(msg, promise)


# Aliases matching Netty terminology; both directions share one base here
# because the simulation dispatches explicitly.
ChannelInboundHandler = ChannelHandler
ChannelOutboundHandler = ChannelHandler
ChannelDuplexHandler = ChannelHandler


class HandlerContext:
    """A handler's position in its pipeline (doubly linked).

    ``next``/``prev`` are the structural neighbours. The per-message
    events travel skip links instead (Netty's ``executionMask``): the next
    context whose handler overrides ``channel_read``, the previous one
    overriding ``write``; the pipeline relinks them on every change.
    """

    __slots__ = (
        "pipeline", "name", "handler", "prev", "next", "next_reader", "prev_writer"
    )

    def __init__(self, pipeline: "ChannelPipeline", name: str, handler: ChannelHandler) -> None:
        self.pipeline = pipeline
        self.name = name
        self.handler = handler
        self.prev: HandlerContext | None = None
        self.next: HandlerContext | None = None
        self.next_reader: HandlerContext | None = None
        self.prev_writer: HandlerContext | None = None

    @property
    def channel(self) -> "Channel":
        return self.pipeline.channel

    # -- inbound propagation ---------------------------------------------------
    def fire_channel_active(self) -> None:
        if self.next is not None:
            self.next.handler.channel_active(self.next)

    def fire_channel_read(self, msg: Any) -> None:
        ctx = self.next_reader
        if ctx is not None:
            ctx.handler.channel_read(ctx, msg)

    def fire_channel_inactive(self) -> None:
        if self.next is not None:
            self.next.handler.channel_inactive(self.next)

    def fire_exception_caught(self, exc: BaseException) -> None:
        if self.next is not None:
            self.next.handler.exception_caught(self.next, exc)
        else:
            # Tail of pipeline: nobody handled it.
            self.pipeline.on_unhandled_exception(exc)

    # -- outbound propagation ----------------------------------------------------
    def write(self, msg: Any, promise: "Event") -> None:
        ctx = self.prev_writer
        if ctx is not None:
            ctx.handler.write(ctx, msg, promise)
        else:
            # No writer left towards the head: hand to the transport.
            self.pipeline.channel._transport_write(msg, promise)
