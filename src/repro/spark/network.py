"""Spark's network-common layer: transport clients/servers over Netty.

Reproduces the classes the paper names in its Fig-4 flow:

* :class:`TransportContext` — creates Netty clients and servers ("each
  component in the Spark cluster [has] its own set of Netty servers and
  clients", paper Sec. II-C),
* :class:`TransportClient` / the response handler — outstanding fetch/RPC
  futures matched by id,
* :class:`TransportRequestHandler` — server-side dispatch to the
  :class:`RpcHandler` and :class:`OneForOneStreamManager`,
* :class:`MessageEncoder` / :class:`MessageDecoder` — the codec pair in
  every channel pipeline (the Optimized design inserts its MPI handlers
  around exactly these).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.netty import (
    Bootstrap,
    Channel,
    ChannelHandler,
    EventLoop,
    ServerBootstrap,
    WireFrame,
)
from repro.spark.messages import (
    ChunkFetchFailure,
    ChunkFetchRequest,
    ChunkFetchSuccess,
    Message,
    OneWayMessage,
    RpcFailure,
    RpcRequest,
    RpcResponse,
    StreamChunkId,
    StreamFailure,
    StreamRequest,
    StreamResponse,
    decode_message,
    encode_message,
    ensure_trace,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine
    from repro.simnet.events import Event
    from repro.simnet.sockets import SocketAddress, SocketStack


class TransportError(RuntimeError):
    """Fetch or RPC failure surfaced to the caller."""


class FetchFailedException(TransportError):
    """A shuffle-block fetch failed (Spark's FetchFailedException).

    Unlike an ordinary task error, the DAG scheduler reacts to this by
    marking the source executor's map output lost and resubmitting the
    parent stage (see repro.faults.recovery).
    """

    def __init__(self, address: Any, message: str, exec_id: int | None = None) -> None:
        super().__init__(f"fetch from {address} failed: {message}")
        self.address = address
        self.exec_id = exec_id


# ---------------------------------------------------------------------------
# codec handlers
# ---------------------------------------------------------------------------

class MessageEncoder(ChannelHandler):
    """Outbound: Message → WireFrame.

    The single chokepoint every outbound Spark message crosses on every
    transport, so this is where causal tracing records ``msg.send`` (and
    mints a root context for messages nobody parented).
    """

    def write(self, ctx, msg, promise):
        if isinstance(msg, Message):
            causal = ctx.channel.env.causal
            if causal.enabled:
                trace = ensure_trace(msg, causal)
                causal.send(
                    trace, msg.type_tag, msg.body_nbytes,
                    channel=ctx.channel.id.as_long_text(),
                )
            msg = encode_message(msg)
        ctx.write(msg, promise)


class MessageDecoder(ChannelHandler):
    """Inbound: WireFrame → Message.

    The inbound chokepoint: the carried trace context survives decoding,
    and ``msg.recv`` closes the message's causal span (send → recv edge).
    """

    def channel_read(self, ctx, msg):
        if isinstance(msg, WireFrame):
            msg = decode_message(msg)
            if msg.trace_ctx is not None:
                ctx.channel.env.causal.recv(
                    msg.trace_ctx, msg.type_tag, msg.body_nbytes,
                    channel=ctx.channel.id.as_long_text(),
                )
        ctx.fire_channel_read(msg)


# The codecs keep no per-channel state, so every pipeline shares one of
# each, as Spark's TransportContext shares MessageEncoder.INSTANCE and
# MessageDecoder.INSTANCE (Netty's @Sharable).
MessageEncoder.INSTANCE = MessageEncoder()
MessageDecoder.INSTANCE = MessageDecoder()


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

class RpcHandler:
    """Application hook for RPCs (subclassed by the shuffle service)."""

    def receive(
        self,
        client_channel: Channel,
        payload: Any,
        reply: Callable[[Any, int], None],
    ) -> None:
        """Handle an RpcRequest; call ``reply(payload, nbytes)`` exactly once."""
        raise NotImplementedError

    def receive_one_way(self, client_channel: Channel, payload: Any) -> None:
        """Handle a OneWayMessage (no reply)."""


class _CountedProvider:
    """A plain chunk provider registered with its chunk count."""

    __slots__ = ("provider", "n_chunks")

    def __init__(self, provider: Callable[[int, int], tuple[Any, int]], n_chunks: int) -> None:
        self.provider = provider
        self.n_chunks = n_chunks

    def __call__(self, chunk_index: int, num_blocks: int) -> tuple[Any, int]:
        return self.provider(chunk_index, num_blocks)


class OneForOneStreamManager:
    """Registers streams of chunks for fetching (Spark's stream manager)."""

    def __init__(self) -> None:
        # stream_id -> chunk provider; one with an ``n_chunks`` attribute
        # is released once its last chunk is served
        self._streams: dict[int, Callable[[int, int], tuple[Any, int]]] = {}
        self._owners: dict[int, Any] = {}  # stream_id -> owning application
        self._ids = itertools.count(1000)
        self.chunks_served = 0
        self._invalid_reason: str | None = None

    def register_stream(
        self,
        chunk_provider: Callable[[int, int], tuple[Any, int]],
        owner: Any = None,
        n_chunks: int | None = None,
    ) -> int:
        """``chunk_provider(chunk_index, num_blocks) -> (payload, nbytes)``.

        ``owner`` namespaces the stream to one application (multi-tenant
        job server); :meth:`release_owner` sweeps all of an app's streams
        when it finishes or is aborted. A stream whose chunk count is known
        is released once its last chunk is served, as Spark's
        ``OneForOneStreamManager.getChunk`` does; one without stays until
        released. The count is ``n_chunks``, or else the provider's own
        ``n_chunks`` attribute (an OpenBlocks stream descriptor carries
        one and is stored as it is).
        """
        if n_chunks is not None:
            chunk_provider = _CountedProvider(chunk_provider, n_chunks)
        stream_id = next(self._ids)
        self._streams[stream_id] = chunk_provider
        if owner is not None:
            self._owners[stream_id] = owner
        return stream_id

    def get_chunk(self, stream_id: int, chunk_index: int, num_blocks: int) -> tuple[Any, int]:
        provider = self._streams.get(stream_id)
        if provider is None:
            reason = self._invalid_reason
            detail = f" ({reason})" if reason else ""
            raise TransportError(f"unknown stream {stream_id}{detail}")
        self.chunks_served += 1
        chunk = provider(chunk_index, num_blocks)
        n_chunks = getattr(provider, "n_chunks", None)
        if n_chunks is not None and chunk_index == n_chunks - 1:
            self.release(stream_id)
        return chunk

    def release(self, stream_id: int) -> None:
        self._streams.pop(stream_id, None)
        self._owners.pop(stream_id, None)

    def release_owner(self, owner: Any) -> int:
        """Drop every stream registered under ``owner``; returns the count.

        The job server calls this when an application completes or is
        aborted — the executor-side cleanup of that app's shuffle state
        (Spark's ExternalShuffleService ``applicationRemoved``).
        """
        stale = [sid for sid, own in self._owners.items() if own == owner]
        for sid in stale:
            self._streams.pop(sid, None)
            self._owners.pop(sid, None)
        return len(stale)

    def invalidate_all(self, reason: str) -> None:
        """Drop every registered stream (lost map output / shuffle files).

        Subsequent fetches get a ChunkFetchFailure naming ``reason`` — the
        missing-blocks path of the server-side handler.
        """
        self._streams.clear()
        self._owners.clear()
        self._invalid_reason = reason


class TransportRequestHandler(ChannelHandler):
    """Server-side dispatch of request messages."""

    __slots__ = ("rpc_handler", "stream_manager")

    def __init__(self, rpc_handler: RpcHandler, stream_manager: OneForOneStreamManager) -> None:
        self.rpc_handler = rpc_handler
        self.stream_manager = stream_manager

    def channel_read(self, ctx, msg):
        channel = ctx.channel
        if isinstance(msg, ChunkFetchRequest):
            self._handle_chunk_fetch(channel, msg)
        elif isinstance(msg, RpcRequest):
            self._handle_rpc(channel, msg)
        elif isinstance(msg, OneWayMessage):
            self.rpc_handler.receive_one_way(channel, msg.payload)
        elif isinstance(msg, StreamRequest):
            self._handle_stream(channel, msg)
        else:
            ctx.fire_channel_read(msg)

    @staticmethod
    def _as_reply(channel: Channel, request: Message, response: Message) -> Message:
        """Link a response into the request's trace (request→response edge)."""
        if request.trace_ctx is not None:
            response.trace_ctx = channel.env.causal.child(request.trace_ctx)
        return response

    def _handle_chunk_fetch(self, channel: Channel, msg: ChunkFetchRequest) -> None:
        sid = msg.stream_chunk_id
        try:
            payload, nbytes = self.stream_manager.get_chunk(
                sid.stream_id, sid.chunk_index, msg.num_blocks
            )
        except Exception as exc:
            channel.write_and_flush(
                self._as_reply(channel, msg, ChunkFetchFailure(sid, str(exc)))
            )
            return
        try:
            channel.write_and_flush(
                self._as_reply(
                    channel, msg, ChunkFetchSuccess(sid, payload, nbytes, msg.num_blocks)
                )
            )
        except Exception as exc:
            # The response could not be put on the wire (e.g. the MPI body
            # isend refused because the peer rank died). Try to tell the
            # client; if even that fails the client learns via the channel.
            try:
                channel.write_and_flush(
                    self._as_reply(
                        channel, msg, ChunkFetchFailure(sid, f"write failed: {exc}")
                    )
                )
            except Exception:
                pass

    def _handle_rpc(self, channel: Channel, msg: RpcRequest) -> None:
        def reply(payload: Any, nbytes: int = 0) -> None:
            channel.write_and_flush(
                self._as_reply(channel, msg, RpcResponse(msg.request_id, payload, nbytes))
            )

        try:
            self.rpc_handler.receive(channel, msg.payload, reply)
        except Exception as exc:
            channel.write_and_flush(
                self._as_reply(channel, msg, RpcFailure(msg.request_id, str(exc)))
            )

    def _handle_stream(self, channel: Channel, msg: StreamRequest) -> None:
        try:
            payload, nbytes = self.stream_manager.get_chunk(int(msg.stream_id), 0, 1)
        except Exception as exc:
            channel.write_and_flush(
                self._as_reply(channel, msg, StreamFailure(msg.stream_id, str(exc)))
            )
            return
        channel.write_and_flush(
            self._as_reply(channel, msg, StreamResponse(msg.stream_id, nbytes, payload))
        )


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

class TransportResponseHandler(ChannelHandler):
    """Matches response messages to the futures awaiting them."""

    __slots__ = ("env", "outstanding_fetches", "outstanding_rpcs", "outstanding_streams")

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.outstanding_fetches: dict[StreamChunkId, "Event"] = {}
        self.outstanding_rpcs: dict[int, "Event"] = {}
        self.outstanding_streams: dict[str, "Event"] = {}

    def channel_read(self, ctx, msg):
        if isinstance(msg, ChunkFetchSuccess):
            future = self.outstanding_fetches.pop(msg.stream_chunk_id, None)
            if future is not None:
                future.succeed(msg)
        elif isinstance(msg, ChunkFetchFailure):
            future = self.outstanding_fetches.pop(msg.stream_chunk_id, None)
            if future is not None:
                future.fail(TransportError(msg.error))
        elif isinstance(msg, RpcResponse):
            future = self.outstanding_rpcs.pop(msg.request_id, None)
            if future is not None:
                future.succeed(msg.payload)
        elif isinstance(msg, RpcFailure):
            future = self.outstanding_rpcs.pop(msg.request_id, None)
            if future is not None:
                future.fail(TransportError(msg.error))
        elif isinstance(msg, StreamResponse):
            future = self.outstanding_streams.pop(msg.stream_id, None)
            if future is not None:
                future.succeed(msg)
        elif isinstance(msg, StreamFailure):
            future = self.outstanding_streams.pop(msg.stream_id, None)
            if future is not None:
                future.fail(TransportError(msg.error))
        else:
            ctx.fire_channel_read(msg)

    def _fail_all(self, exc_factory: Callable[[], Exception]) -> int:
        """Fail every outstanding future; returns how many were failed."""
        failed = 0
        for table in (
            self.outstanding_fetches,
            self.outstanding_rpcs,
            self.outstanding_streams,
        ):
            futures = list(table.values())
            table.clear()
            for future in futures:
                if not future.triggered:
                    future.fail(exc_factory())
                    failed += 1
        return failed

    def channel_inactive(self, ctx):
        remote = ctx.channel.remote_address
        self._fail_all(lambda: TransportError(f"connection to {remote} closed"))
        causal = ctx.channel.env.causal
        if causal.enabled:
            causal.channel_closed(
                ctx.channel.id.as_long_text(), f"connection to {remote} closed"
            )
        ctx.fire_channel_inactive()

    def exception_caught(self, ctx, exc):
        remote = ctx.channel.remote_address
        self._fail_all(lambda: TransportError(f"channel to {remote}: {exc}"))
        causal = ctx.channel.env.causal
        if causal.enabled:
            causal.channel_closed(
                ctx.channel.id.as_long_text(), f"channel to {remote}: {exc}"
            )
        ctx.fire_exception_caught(exc)


class TransportClient:
    """Client face of one channel: chunk fetches, RPCs, streams."""

    __slots__ = ("channel", "handler", "env")

    _rpc_ids = itertools.count(1)

    def __init__(self, channel: Channel, handler: TransportResponseHandler) -> None:
        self.channel = channel
        self.handler = handler
        self.env = channel.env

    def _parent(self, msg: Message, trace_parent) -> Message:
        """Attach a causal child context when the caller named a parent span."""
        if trace_parent is not None:
            causal = self.env.causal
            if causal.enabled:
                msg.trace_ctx = causal.child(trace_parent)
        return msg

    def fetch_chunk(
        self, stream_id: int, chunk_index: int, num_blocks: int = 1, trace_parent=None
    ) -> "Event":
        """Request one chunk; returns a future of :class:`ChunkFetchSuccess`."""
        sid = StreamChunkId(stream_id, chunk_index)
        future = self.env.event()
        self.handler.outstanding_fetches[sid] = future
        self.channel.write_and_flush(
            self._parent(ChunkFetchRequest(sid, num_blocks), trace_parent)
        )
        return future

    def send_rpc(self, payload: Any, nbytes: int = 0, trace_parent=None) -> "Event":
        """Send an RPC; returns a future of the reply payload."""
        rpc_id = next(TransportClient._rpc_ids)
        future = self.env.event()
        self.handler.outstanding_rpcs[rpc_id] = future
        self.channel.write_and_flush(
            self._parent(RpcRequest(rpc_id, payload, nbytes), trace_parent)
        )
        return future

    def send_one_way(self, payload: Any, nbytes: int = 0, trace_parent=None) -> None:
        self.channel.write_and_flush(
            self._parent(OneWayMessage(payload, nbytes), trace_parent)
        )

    def stream(self, stream_id: str, trace_parent=None) -> "Event":
        """Open a stream; returns a future of :class:`StreamResponse`."""
        future = self.env.event()
        self.handler.outstanding_streams[stream_id] = future
        self.channel.write_and_flush(
            self._parent(StreamRequest(stream_id), trace_parent)
        )
        return future


# ---------------------------------------------------------------------------
# context & factory
# ---------------------------------------------------------------------------

class TransportContext:
    """Creates servers and clients sharing one RpcHandler/StreamManager.

    ``pipeline_hook(channel, is_server)`` lets the MPI transports inject
    their extra handlers / replace the transport write — this is the
    modularity the paper claims for targeting the Netty layer.
    """

    def __init__(
        self,
        stack: "SocketStack",
        rpc_handler: RpcHandler | None = None,
        stream_manager: OneForOneStreamManager | None = None,
        pipeline_hook: Callable[[Channel, bool], None] | None = None,
    ) -> None:
        self.stack = stack
        self.env = stack.env
        self.rpc_handler = rpc_handler or RpcHandler()
        self.stream_manager = stream_manager or OneForOneStreamManager()
        self.pipeline_hook = pipeline_hook

    # -- pipelines ----------------------------------------------------------
    def init_server_channel(self, channel: Channel) -> None:
        p = channel.pipeline
        p.add_last("encoder", MessageEncoder.INSTANCE)
        p.add_last("decoder", MessageDecoder.INSTANCE)
        if self.pipeline_hook is not None:
            self.pipeline_hook(channel, True)
        p.add_last(
            "requestHandler",
            TransportRequestHandler(self.rpc_handler, self.stream_manager),
        )

    def init_client_channel(self, channel: Channel) -> TransportResponseHandler:
        p = channel.pipeline
        p.add_last("encoder", MessageEncoder.INSTANCE)
        p.add_last("decoder", MessageDecoder.INSTANCE)
        if self.pipeline_hook is not None:
            self.pipeline_hook(channel, False)
        handler = TransportResponseHandler(self.env)
        p.add_last("responseHandler", handler)
        return handler

    # -- endpoints ----------------------------------------------------------
    def create_server(self, loop: EventLoop, node, port: int, child_group=None):
        return (
            ServerBootstrap(self.stack)
            .group(loop, child_group)
            .child_handler(self.init_server_channel)
            .bind(node, port)
        )

    def create_client(
        self, loop: EventLoop, node, remote: "SocketAddress"
    ) -> Generator:
        """Connect and build a :class:`TransportClient` (generator)."""
        holder: dict[str, TransportResponseHandler] = {}

        def init(channel: Channel) -> None:
            holder["handler"] = self.init_client_channel(channel)

        channel = yield from (
            Bootstrap(self.stack).group(loop).handler(init).connect(node, remote)
        )
        return TransportClient(channel, holder["handler"])


class TransportClientFactory:
    """Pools one client per remote address per source node (Spark pools
    ``spark.shuffle.io.numConnectionsPerPeer``, default 1). New clients'
    channels are spread over an event-loop group so a blocked handler on
    one connection does not stall the others."""

    def __init__(self, context: TransportContext, loops, node) -> None:
        from repro.netty.eventloop import EventLoopGroup

        self.context = context
        if isinstance(loops, EventLoop):
            loops = EventLoopGroup([loops])
        self.group: "EventLoopGroup" = loops
        self.node = node
        self._clients: dict[tuple[str, int], TransportClient] = {}
        self._connecting: dict[tuple[str, int], Any] = {}

    def get_client(self, remote: "SocketAddress") -> Generator:
        key = (remote.host, remote.port)
        while True:
            client = self._clients.get(key)
            if client is not None and client.channel.active:
                return client
            pending = self._connecting.get(key)
            if pending is None:
                break
            # Another task is already connecting: join its wait.
            yield pending
        done = self.context.env.event()
        self._connecting[key] = done
        try:
            client = yield from self.context.create_client(
                self.group.next(), self.node, remote
            )
            self._clients[key] = client
        finally:
            del self._connecting[key]
            done.succeed()
        return client
