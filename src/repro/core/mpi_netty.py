"""The MPI-based Netty transport: write/read paths for both designs.

**MPI4Spark-Optimized** (paper Sec. VI-E): only ``ChunkFetchSuccess`` and
``StreamResponse`` bodies travel over MPI. The frame *header* still goes
over the Java socket; the receiving ChannelHandler parses the header
(:func:`repro.spark.messages.peek_message_type`) and triggers a blocking
``MPI_Recv`` for the body on the event-loop thread.

**MPI4Spark-Basic** (paper Sec. VI-D): *every* message goes over MPI; the
socket is used only for connection establishment. The selector loop is
replaced by a non-blocking ``selectNow`` + ``MPI_Iprobe`` polling loop
(:class:`MpiBasicEventLoop`), whose constant polling is the design's
documented weakness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.core.endpoint import CommBinding
from repro.core.handshake import ATTR_BINDING, ATTR_TAG, MpiHandshakeHandler
from repro.mpi.errors import MPIError
from repro.netty.channel import Channel
from repro.netty.eventloop import READ_EVENT_COST_S, EventLoop
from repro.netty.frame import WireFrame
from repro.netty.handler import ChannelHandler
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.spark.messages import MPI_OPTIMIZED_BODY_TYPES, peek_message_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import MpiEndpoint
    from repro.simnet.events import Event


def _binding_of(channel: Channel) -> CommBinding:
    binding = channel.attributes.get(ATTR_BINDING)
    if binding is None:
        raise RuntimeError(
            f"channel {channel.id} used for MPI transport before rank handshake"
        )
    return binding


def _mpi_isend(channel: Channel, payload: Any, nbytes: int, trace_ctx=None) -> None:
    """Nonblocking send nobody waits on: no request is built."""
    binding = _binding_of(channel)
    tag = channel.attributes[ATTR_TAG]
    endpoint: "MpiEndpoint" = channel.event_loop.mpi_endpoint
    endpoint.proc._start_send(
        binding.peer_gid,
        binding.comm.rank,
        binding.context_id,
        tag,
        payload,
        int(nbytes),
        trace_ctx,
    )


# ---------------------------------------------------------------------------
# MPI4Spark-Optimized
# ---------------------------------------------------------------------------

def optimized_transport_write(channel: Channel, msg: Any, promise: "Event") -> None:
    """Outbound: split MessageWithHeader — header on socket, body on MPI."""
    if isinstance(msg, WireFrame) and msg.body_nbytes > 0:
        tag, body_nbytes = peek_message_type(msg)
        if tag in MPI_OPTIMIZED_BODY_TYPES:
            header_only = WireFrame(header=msg.header, body=None, body_nbytes=0)
            body_ctx = None
            causal = channel.env.causal
            if causal.enabled and msg.trace_ctx is not None:
                # The split gives the MPI body leg its own span, a child of
                # the message's span; the header keeps the original context
                # so the receive side can join the two back together.
                header_only.trace_ctx = msg.trace_ctx
                body_ctx = causal.child(msg.trace_ctx)
                causal.send(
                    body_ctx, tag, body_nbytes,
                    channel=channel.id.as_long_text(), leg="mpi-body",
                )
            channel.socket.send(header_only, len(msg.header))
            _mpi_isend(channel, msg.body, body_nbytes, trace_ctx=body_ctx)
            try:
                c_hdr_msgs, c_hdr_bytes, c_body_msgs, c_body_bytes = (
                    channel._mpi_opt_counters
                )
            except AttributeError:
                m = channel.env.metrics
                c_hdr_msgs = m.counter("transport.mpi-opt.header.messages")
                c_hdr_bytes = m.counter("transport.mpi-opt.header.bytes")
                c_body_msgs = m.counter("transport.mpi-opt.body.messages")
                c_body_bytes = m.counter("transport.mpi-opt.body.bytes")
                channel._mpi_opt_counters = (
                    c_hdr_msgs,
                    c_hdr_bytes,
                    c_body_msgs,
                    c_body_bytes,
                )
            c_hdr_msgs.value += 1.0
            c_hdr_bytes.value += len(msg.header)
            c_body_msgs.value += 1.0
            c_body_bytes.value += body_nbytes
            if not promise.triggered:
                promise.complete()
            return
    # Everything else rides the socket unchanged (vanilla path).
    Channel._transport_write(channel, msg, promise)


class MpiBodyReceiveHandler(ChannelHandler):
    """Inbound: parse headers; trigger MPI_Recv for stripped bodies.

    Sits right after the handshake handler, before the MessageDecoder —
    the Fig-7 position. The receive blocks the event-loop thread via
    :meth:`EventLoop.run_blocking`, exactly as a blocking ``MPI_Recv``
    inside a Netty ChannelHandler would.
    """

    def channel_read(self, ctx, msg):
        if isinstance(msg, WireFrame) and msg.body is None:
            tag, body_nbytes = peek_message_type(msg)
            if tag in MPI_OPTIMIZED_BODY_TYPES and body_nbytes > 0:
                ctx.channel.event_loop.run_blocking(
                    self._receive_body(ctx, msg, body_nbytes)
                )
                return
        ctx.fire_channel_read(msg)

    def _receive_body(self, ctx, frame: WireFrame, body_nbytes: int) -> Generator:
        channel = ctx.channel
        binding = _binding_of(channel)
        tag = channel.attributes[ATTR_TAG]
        endpoint: "MpiEndpoint" = channel.event_loop.mpi_endpoint
        req = endpoint.proc._irecv(binding.peer_rank, tag, binding.context_id)
        try:
            body = yield from req.wait()
        except MPIError as exc:
            # The body will never arrive (peer rank died / world aborted):
            # surface it so the response handler can fail outstanding fetches.
            channel.pipeline.fire_exception_caught(exc)
            return
        frame.body = body
        frame.body_nbytes = body_nbytes
        if frame.trace_ctx is not None:
            # Header (socket) and body (MPI) legs reunite here — the join
            # edge of the causal model; the decoder's msg.recv follows.
            channel.env.causal.join(
                frame.trace_ctx, body_nbytes, channel=channel.id.as_long_text()
            )
        ctx.fire_channel_read(frame)


# Stateless: every channel's pipeline shares the one instance.
MpiBodyReceiveHandler.INSTANCE = MpiBodyReceiveHandler()


# ---------------------------------------------------------------------------
# MPI4Spark-Basic
# ---------------------------------------------------------------------------

def basic_transport_write(channel: Channel, msg: Any, promise: "Event") -> None:
    """Outbound: ALL messages over MPI point-to-point (Sec. VI-D)."""
    if isinstance(msg, WireFrame):
        _mpi_isend(channel, msg, msg.nbytes, trace_ctx=msg.trace_ctx)
        try:
            c_msgs, c_bytes = channel._mpi_basic_counters
        except AttributeError:
            m = channel.env.metrics
            c_msgs = m.counter("transport.mpi-basic.messages")
            c_bytes = m.counter("transport.mpi-basic.bytes")
            channel._mpi_basic_counters = (c_msgs, c_bytes)
        c_msgs.value += 1.0
        c_bytes.value += msg.nbytes
        if not promise.triggered:
            promise.complete()
        return
    # Non-frame payloads (handshake envelopes) still use the socket.
    Channel._transport_write(channel, msg, promise)


class MpiBasicEventLoop(EventLoop):
    """The Basic design's modified selector loop (paper Fig. 5 + Sec. VI-D).

    The blocking ``select`` is replaced by ``selectNow`` so the loop never
    parks while MPI messages might be pending; each iteration additionally
    ``MPI_Iprobe``-s every bound channel. The per-iteration costs, from
    the :class:`CostModel` the loop is built with, are charged on the loop
    thread — with many idle iterations, this is the compute-starving
    behaviour the paper measured.
    """

    def __init__(
        self, env, name: str | None = None, cost: CostModel = DEFAULT_COST
    ) -> None:
        super().__init__(env, name)
        self.cost = cost
        self.mpi_channels: list[Channel] = []
        # Cumulative CPU seconds spent in selectNow + MPI_Iprobe rounds —
        # the measured "polling tax" reported next to Fig 9.
        self._c_poll_tax = env.metrics.counter(f"netty.loop.{name}.poll_tax_s")
        self._c_poll_rounds = env.metrics.counter(
            f"netty.loop.{name}.poll_rounds"
        )
        # (channel, peer_rank, tag, context_id) rows of the bound channels
        # in mpi_channels order (the iprobe drain order is
        # simulation-visible); rebuilt lazily when a bind or unbind marks
        # them dirty. The idle park waits on these rows, each on its probe
        # bucket, and on the task queue.
        self._poll_cache: list = []
        self._poll_dirty = True
        self._park_tasks = ((self.tasks, self.tasks.when_nonempty),)
        self._endpoint = None

    def _poll_rows(self) -> list:
        """The drain list, cached across rounds, its MPI route resolved to
        plain ints once per rebuild."""
        if self._poll_dirty:
            rows = self._poll_cache = []
            for channel in self.mpi_channels:
                binding = channel.attributes.get(ATTR_BINDING)
                tag = channel.attributes.get(ATTR_TAG)
                if binding is not None and tag is not None:
                    rows.append((channel, binding.peer_rank, tag, binding.context_id))
            self._poll_dirty = False
        return self._poll_cache

    def on_mpi_channel_bound(self, channel: Channel) -> None:
        if channel in self.mpi_channels:
            return  # idempotent: re-handshakes must not double-poll
        self.mpi_channels.append(channel)
        self._poll_dirty = True
        # A parked loop must start iprobing the new channel.
        self.selector.wakeup()

    def on_mpi_channel_unbound(self, channel: Channel) -> None:
        if channel in self.mpi_channels:
            self.mpi_channels.remove(channel)
            self._poll_dirty = True

    def _run(self) -> Generator:
        env = self.env
        select_now_s = self.cost.select_now_cost_s
        iprobe_s = self.cost.iprobe_cost_s
        discovery_s = self.cost.basic_poll_period_s / 2
        c_poll_tax, c_poll_rounds = self._c_poll_tax, self._c_poll_rounds
        c_iterations, c_busy = self._c_iterations, self._c_busy
        while self.running:
            # Poll round: selectNow + one MPI_Iprobe per bound channel.
            t_busy = env.now
            poll_cost = select_now_s + len(self.mpi_channels) * iprobe_s
            yield env.timeout(poll_cost)
            c_poll_tax.value += poll_cost
            c_poll_rounds.value += 1.0
            c_iterations.value += 1.0
            keys = self.selector.select_now()
            for key in keys:
                if key.is_acceptable():
                    yield from self._accept_all(key)
                elif key.is_readable():
                    yield from self._read_all(key.channel)

            # Drain every MPI-bound channel that iprobe reports ready.
            progressed = bool(keys)
            endpoint = self._endpoint
            if endpoint is None:
                endpoint = self._endpoint = getattr(self, "mpi_endpoint", None)
            if endpoint is not None:
                iprobe = endpoint.proc.matching.iprobe
                irecv = endpoint.proc._irecv
                for channel, peer_rank, tag, context_id in self._poll_rows():
                    if not channel.active:
                        # Closed earlier in this round: its channel_inactive
                        # already unbound it, and the rows rebuild next round.
                        continue
                    while iprobe(peer_rank, tag, context_id):
                        progressed = True
                        req = irecv(peer_rank, tag, context_id)
                        try:
                            frame = yield req.event
                        except MPIError as exc:
                            channel.pipeline.fire_exception_caught(exc)
                            break
                        self._c_messages_read.value += 1.0
                        yield env.timeout(READ_EVENT_COST_S)
                        try:
                            channel.pipeline.fire_channel_read(frame)
                        except Exception as exc:
                            channel.pipeline.fire_exception_caught(exc)
                        if self._blocking:
                            yield from self._drain_blocking()

            if self._blocking:
                yield from self._drain_blocking()
            while self.tasks.items:
                fn = self.tasks.get_nowait()
                yield env.timeout(select_now_s)
                fn()
                if self._blocking:
                    yield from self._drain_blocking()
                progressed = True

            c_busy.value += env.now - t_busy
            if not progressed:
                # Idle: the real thread keeps spinning (its CPU burn is the
                # executor's polling-core tax); the *simulation* parks until
                # something can arrive, then charges the average discovery
                # delay of a poll period. This keeps wall time bounded
                # without distorting the design's latency behaviour. Neither
                # the park nor the discovery delay counts as busy_s — the
                # modeled spin burn is already the polling-core tax. Park
                # holding nothing: not the last message read, nor its request.
                req = frame = None
                if endpoint is None:
                    yield from self.selector.park(extra=self._park_tasks)
                else:
                    # One persistent waiter per source, so a park costs the
                    # signals since the last one, not the channel count. The
                    # poll rows are the park's rows as they are: the loop
                    # keeps no per-row park object.
                    yield from self.selector.park(
                        extra=self._park_tasks,
                        rows=self._poll_rows(),
                        make_row=endpoint.proc.matching.probe_event,
                    )
                yield env.timeout(discovery_s)


class NotifyingHandshakeHandler(MpiHandshakeHandler):
    """Handshake handler that also registers bound channels with the loop
    (the Basic design's loop must know which channels to iprobe)."""

    def channel_read(self, ctx, msg):
        had_binding = ATTR_BINDING in ctx.channel.attributes
        super().channel_read(ctx, msg)
        if not had_binding and ATTR_BINDING in ctx.channel.attributes:
            loop = ctx.channel.event_loop
            hook = getattr(loop, "on_mpi_channel_bound", None)
            if hook is not None:
                hook(ctx.channel)

    def channel_inactive(self, ctx):
        # The loop's one unbind path: its poll round only skips a row whose
        # channel closed mid-round.
        hook = getattr(ctx.channel.event_loop, "on_mpi_channel_unbound", None)
        if hook is not None:
            hook(ctx.channel)
        super().channel_inactive(ctx)


NotifyingHandshakeHandler.INSTANCE = NotifyingHandshakeHandler()
