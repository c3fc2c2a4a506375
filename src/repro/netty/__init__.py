"""A from-scratch Netty: event-driven network framework over sim sockets.

Substitutes for Netty 4.1 — the layer the paper modifies. Provides
ByteBufs, channels with handler pipelines, the NIO selector loop (Fig. 5),
and client/server bootstraps. Spark's network-common layer
(:mod:`repro.spark.network`) and the MPI transports (:mod:`repro.core`)
build directly on these classes.
"""

from repro.netty.bootstrap import Bootstrap, NettyServer, ServerBootstrap
from repro.netty.bytebuf import ByteBuf, ByteBufError, PooledByteBufAllocator
from repro.netty.channel import Channel, ChannelId
from repro.netty.eventloop import (
    READ_EVENT_COST_S,
    TASK_COST_S,
    WAKEUP_COST_S,
    EventLoop,
)
from repro.netty.frame import (
    FRAME_LENGTH_SIZE,
    TYPE_TAG_SIZE,
    WireFrame,
)
from repro.netty.handler import (
    ChannelDuplexHandler,
    ChannelHandler,
    ChannelInboundHandler,
    ChannelOutboundHandler,
    HandlerContext,
)
from repro.netty.pipeline import ChannelPipeline, PipelineError
from repro.netty.selector import OP_ACCEPT, OP_READ, SelectionKey, Selector

__all__ = [
    "ByteBuf",
    "ByteBufError",
    "PooledByteBufAllocator",
    "Channel",
    "ChannelId",
    "ChannelPipeline",
    "PipelineError",
    "ChannelHandler",
    "ChannelInboundHandler",
    "ChannelOutboundHandler",
    "ChannelDuplexHandler",
    "HandlerContext",
    "EventLoop",
    "WAKEUP_COST_S",
    "READ_EVENT_COST_S",
    "TASK_COST_S",
    "Selector",
    "SelectionKey",
    "OP_READ",
    "OP_ACCEPT",
    "WireFrame",
    "FRAME_LENGTH_SIZE",
    "TYPE_TAG_SIZE",
    "Bootstrap",
    "ServerBootstrap",
    "NettyServer",
]
