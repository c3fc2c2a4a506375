"""Rank exchange at connection establishment (paper Sec. VI-B).

"The ranks of MPI processes are identified and communicated through the
Netty Java sockets using PooledDirectByteBufs. The communicator types are
signified using single bytes and are also communicated during the
connection establishment phase."

The client sends a :class:`RankAnnouncement` (encoded into a pooled direct
ByteBuf) immediately after connecting; the server's handshake handler maps
``ChannelId → (rank, communicator kind)`` and replies with its own
announcement. Only after both sides are mapped does MPI-based data flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.netty.bytebuf import ByteBuf
from repro.netty.channel import Channel
from repro.netty.handler import ChannelHandler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import MpiEndpoint

# gid (8) + tag (8) + kind (1)
HANDSHAKE_WIRE_BYTES = 17

ATTR_BINDING = "mpi_binding"
ATTR_TAG = "mpi_tag"
ATTR_DONE = "mpi_handshake_done"


class HandshakeError(RuntimeError):
    """Rank exchange failed (dead peer, no shared communicator, or the
    channel closed before the reply arrived)."""


@dataclass(frozen=True)
class RankAnnouncement:
    """One side's identity: MPI gid, channel tag base, communicator kind."""

    gid: int
    tag: int
    kind: int
    reply_expected: bool

    def encode(self, channel: Channel) -> ByteBuf:
        buf = channel.alloc.direct_buffer()  # the paper's PooledDirectByteBuf
        buf.write_long(self.gid)
        buf.write_long(self.tag)
        buf.write_byte(self.kind)
        buf.write_byte(1 if self.reply_expected else 0)
        return buf

    @staticmethod
    def decode(buf: ByteBuf) -> "RankAnnouncement":
        return RankAnnouncement(
            gid=buf.read_long(),
            tag=buf.read_long(),
            kind=buf.read_byte(),
            reply_expected=buf.read_byte() == 1,
        )


class _HandshakeEnvelope:
    """Marks a socket payload as a handshake buffer (so the handler can
    distinguish it from application frames without sniffing bytes)."""

    __slots__ = ("buf",)

    def __init__(self, buf: ByteBuf) -> None:
        self.buf = buf


class MpiHandshakeHandler(ChannelHandler):
    """First inbound handler on every MPI-transport channel.

    Consumes handshake envelopes, resolves the communicator binding via the
    event loop's :class:`~repro.core.endpoint.MpiEndpoint`, and completes
    the channel's handshake event. Application frames pass through.
    """

    def channel_read(self, ctx, msg):
        if not isinstance(msg, _HandshakeEnvelope):
            ctx.fire_channel_read(msg)
            return
        channel = ctx.channel
        ann = RankAnnouncement.decode(msg.buf)
        endpoint: "MpiEndpoint" = channel.event_loop.mpi_endpoint
        world = endpoint.proc.world
        if (
            not endpoint.proc.alive
            or world.aborted
            or ann.gid in world.dead
        ):
            # Handshaking with (or as) a dead rank: refuse by closing; the
            # peer sees channel_inactive and its pending handshake fails.
            channel.close()
            return
        try:
            binding = endpoint.resolve(ann.gid)
        except Exception:
            channel.close()
            return
        channel.attributes[ATTR_BINDING] = binding
        channel.attributes[ATTR_TAG] = ann.tag
        if ann.reply_expected:
            reply = RankAnnouncement(
                gid=endpoint.proc.gid, tag=ann.tag, kind=binding.kind, reply_expected=False
            )
            channel.socket.send(
                _HandshakeEnvelope(reply.encode(channel)), HANDSHAKE_WIRE_BYTES
            )
        done = channel.attributes.get(ATTR_DONE)
        if done is not None and not done.triggered:
            done.succeed(binding)

    def channel_inactive(self, ctx):
        # Channel teardown releases its rank mapping; a handshake still in
        # flight completes in error rather than hanging its waiters.
        channel = ctx.channel
        channel.attributes.pop(ATTR_BINDING, None)
        done = channel.attributes.get(ATTR_DONE)
        if done is not None and not done.triggered:
            done.fail(
                HandshakeError(
                    f"channel {channel.id} closed before rank handshake completed"
                )
            )
        ctx.fire_channel_inactive()


# Stateless: every channel's pipeline shares the one instance.
MpiHandshakeHandler.INSTANCE = MpiHandshakeHandler()


def initiate_handshake(channel: Channel, endpoint: "MpiEndpoint") -> None:
    """Client side: announce our identity. The channel's tag base is its own
    unique ChannelId value, so concurrent channels between the same pair of
    processes never cross tags."""
    tag = channel.id._value
    channel.attributes[ATTR_TAG] = tag
    channel.attributes[ATTR_DONE] = channel.env.event()
    ann = RankAnnouncement(
        gid=endpoint.proc.gid, tag=tag, kind=0, reply_expected=True
    )
    channel.socket.send(_HandshakeEnvelope(ann.encode(channel)), HANDSHAKE_WIRE_BYTES)


def ensure_handshake(channel: Channel, endpoint: "MpiEndpoint") -> Generator:
    """Idempotent establishment: initiate once, then wait for completion.

    Pooled clients are shared by many concurrent tasks; only the first
    caller sends the announcement — later callers must join the same wait
    (a second initiation would orphan the first waiter's event).
    """
    done = channel.attributes.get(ATTR_DONE)
    if done is None:
        initiate_handshake(channel, endpoint)
        done = channel.attributes[ATTR_DONE]
    yield done
