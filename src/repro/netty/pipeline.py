"""ChannelPipeline: the ordered handler chain attached to every channel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.netty.handler import ChannelHandler, HandlerContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.netty.channel import Channel
    from repro.simnet.events import Event


class _HeadHandler(ChannelHandler):
    """Sentinel at the head: inbound entry point, outbound exit to transport."""


class _TailHandler(ChannelHandler):
    """Sentinel at the tail: swallows un-consumed inbound events."""

    def channel_read(self, ctx: HandlerContext, msg: Any) -> None:
        # Netty logs and releases; we record for debugging/tests.
        ctx.pipeline.unhandled_reads.append(msg)

    def exception_caught(self, ctx: HandlerContext, exc: BaseException) -> None:
        ctx.pipeline.on_unhandled_exception(exc)


# The sentinels keep no state of their own, so every pipeline shares one of
# each (Netty's @Sharable handlers).
_HeadHandler.INSTANCE = _HeadHandler()
_TailHandler.INSTANCE = _TailHandler()


class PipelineError(RuntimeError):
    """Duplicate or missing handler names."""


class ChannelPipeline:
    """Doubly linked list of named handlers between head and tail sentinels."""

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel
        self.unhandled_reads: list[Any] = []
        self.unhandled_exceptions: list[BaseException] = []
        self._head = HandlerContext(self, "HEAD", _HeadHandler.INSTANCE)
        self._tail = HandlerContext(self, "TAIL", _TailHandler.INSTANCE)
        self._head.next = self._tail
        self._tail.prev = self._head
        self._by_name: dict[str, HandlerContext] = {}
        self._relink()

    # -- construction ----------------------------------------------------------
    def add_last(self, name: str, handler: ChannelHandler) -> "ChannelPipeline":
        if name in self._by_name:
            raise PipelineError(f"duplicate handler name {name!r}")
        ctx = HandlerContext(self, name, handler)
        prev = self._tail.prev
        assert prev is not None
        prev.next = ctx
        ctx.prev = prev
        ctx.next = self._tail
        self._tail.prev = ctx
        self._by_name[name] = ctx
        self._relink()
        handler.handler_added(ctx)
        return self

    def add_first(self, name: str, handler: ChannelHandler) -> "ChannelPipeline":
        if name in self._by_name:
            raise PipelineError(f"duplicate handler name {name!r}")
        ctx = HandlerContext(self, name, handler)
        nxt = self._head.next
        assert nxt is not None
        self._head.next = ctx
        ctx.prev = self._head
        ctx.next = nxt
        nxt.prev = ctx
        self._by_name[name] = ctx
        self._relink()
        handler.handler_added(ctx)
        return self

    def _relink(self) -> None:
        """Recompute every context's skip links (see HandlerContext).

        The tail overrides ``channel_read``, so a read always lands
        somewhere; with no ``write`` override left, writes go straight to
        the transport.
        """
        base_read, base_write = ChannelHandler.channel_read, ChannelHandler.write
        ctx, reader = self._tail, None
        while ctx is not None:
            ctx.next_reader = reader
            if type(ctx.handler).channel_read is not base_read:
                reader = ctx
            ctx = ctx.prev
        ctx, writer = self._head, None
        while ctx is not None:
            ctx.prev_writer = writer
            if type(ctx.handler).write is not base_write:
                writer = ctx
            ctx = ctx.next

    # -- event entry points ------------------------------------------------------
    def fire_channel_active(self) -> None:
        self._head.fire_channel_active()

    def fire_channel_read(self, msg: Any) -> None:
        self._head.fire_channel_read(msg)

    def fire_channel_inactive(self) -> None:
        self._head.fire_channel_inactive()

    def fire_exception_caught(self, exc: BaseException) -> None:
        self._head.fire_exception_caught(exc)

    def write(self, msg: Any, promise: "Event") -> None:
        """Outbound entry: starts at the tail, ends at the transport."""
        self._tail.write(msg, promise)

    def on_unhandled_exception(self, exc: BaseException) -> None:
        self.unhandled_exceptions.append(exc)
