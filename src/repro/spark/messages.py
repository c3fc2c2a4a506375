"""Spark network message types (paper Table II) and their wire codec.

Encodings mirror Spark's ``network-common`` module: every message is a
frame of ``[8B frame length][1B type tag][header fields][body]``; bulk
bodies (shuffle chunks, RPC payloads) are *not* materialized into header
bytes — they ride as payload references with explicit sizes, like Netty
FileRegions (see :class:`repro.netty.frame.WireFrame`).

``MessageWithHeader`` (paper Fig. 6) is exactly this header/body split —
the Optimized design sends the header over the Java socket and the body
over MPI, so the codec here must keep them separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from struct import Struct
from struct import error as StructError
from typing import Any, ClassVar, NamedTuple

from repro.netty.frame import WireFrame

# Every header starts with the 8-byte frame length (header + body) and the
# 1-byte type tag; a class's ``HEADER`` continues with its fixed-width
# fields, big-endian. A UTF-8 string is an ``i`` byte count inside the
# packed part followed by the bytes themselves (Spark's Encoders.Strings).
_PREFIX = Struct(">qB")
_TAG_AT = 8
_CHUNK = Struct(">qBqii")  # stream id, chunk index, then blocks or len(error)
_RPC = Struct(">qBq")  # request id
_RPC_FAILURE = Struct(">qBqi")  # request id, len(error)


def _text(header: bytes, at: int, n: int) -> str:
    """The ``n``-byte UTF-8 string at ``header[at:]``."""
    if n < 0 or at + n > len(header):
        raise ValueError(f"string of {n} bytes at {at} overruns a {len(header)}-byte header")
    return str(header[at : at + n], "utf-8")


class StreamChunkId(NamedTuple):
    """Identifies one chunk of one stream (Spark's StreamChunkId)."""

    stream_id: int
    chunk_index: int


class Message:
    """Base wire message. Subclasses define tag + header/body behaviour."""

    type_tag: ClassVar[int] = -1
    is_request: ClassVar[bool] = True
    # The fixed-width part of the on-wire header: one precompiled layout
    # per class, packed and unpacked in one call each.
    HEADER: ClassVar[Struct] = _PREFIX
    # Causal trace context (repro.obs.causal). A plain class-level default —
    # deliberately NOT a dataclass field, so message equality, reprs and
    # encodings are untouched; minted per instance by :func:`ensure_trace`.
    trace_ctx: Any = None

    # -- codec interface -----------------------------------------------------
    def encode_header(self) -> bytes:
        """The complete on-wire header: ``HEADER`` packed, then any strings."""
        raise NotImplementedError

    @classmethod
    def decode_header(cls, fields: tuple, header: bytes, body: Any, body_nbytes: int) -> "Message":
        """Rebuild the message from ``fields = HEADER.unpack_from(header)``
        (strings are read from ``header``); the body rides beside the bytes."""
        raise NotImplementedError

    # The bulk payload riding beside the header and its size in bytes;
    # body-carrying classes alias their own fields here.
    body: ClassVar[Any] = None
    body_nbytes: ClassVar[int] = 0


@dataclass
class ChunkFetchRequest(Message):
    """A request to fetch a single chunk of a stream (Table II).

    ``num_blocks`` is the reproduction's aggregation knob: one simulated
    chunk may stand for a group of same-destination shuffle blocks, and
    per-block overheads are charged ``num_blocks`` times.
    """

    stream_chunk_id: StreamChunkId
    num_blocks: int = 1

    type_tag: ClassVar[int] = 0
    is_request: ClassVar[bool] = True
    HEADER: ClassVar[Struct] = _CHUNK

    def encode_header(self) -> bytes:
        return _CHUNK.pack(_CHUNK.size, self.type_tag, *self.stream_chunk_id, self.num_blocks)

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(StreamChunkId(fields[2], fields[3]), fields[4])


@dataclass
class ChunkFetchSuccess(Message):
    """Response carrying a fetched chunk (the bulk shuffle message)."""

    stream_chunk_id: StreamChunkId
    chunk: Any = None
    chunk_nbytes: int = 0
    num_blocks: int = 1

    type_tag: ClassVar[int] = 1
    is_request: ClassVar[bool] = False
    HEADER: ClassVar[Struct] = _CHUNK

    def encode_header(self) -> bytes:
        return _CHUNK.pack(
            _CHUNK.size + self.chunk_nbytes,
            self.type_tag, *self.stream_chunk_id, self.num_blocks,
        )

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(StreamChunkId(fields[2], fields[3]), body, body_nbytes, fields[4])

    body = property(attrgetter("chunk"))
    body_nbytes = property(attrgetter("chunk_nbytes"))


@dataclass
class ChunkFetchFailure(Message):
    """Fetch failed (block missing / executor lost)."""

    stream_chunk_id: StreamChunkId
    error: str = ""

    type_tag: ClassVar[int] = 2
    is_request: ClassVar[bool] = False
    HEADER: ClassVar[Struct] = _CHUNK

    def encode_header(self) -> bytes:
        error = self.error.encode("utf-8")
        return _CHUNK.pack(
            _CHUNK.size + len(error), self.type_tag, *self.stream_chunk_id, len(error)
        ) + error

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(StreamChunkId(fields[2], fields[3]), _text(header, _CHUNK.size, fields[4]))


@dataclass
class RpcRequest(Message):
    """A generic RPC (Table II). Body is the serialized RPC payload."""

    request_id: int
    payload: Any = None
    payload_nbytes: int = 0

    type_tag: ClassVar[int] = 3
    is_request: ClassVar[bool] = True
    HEADER: ClassVar[Struct] = _RPC

    def encode_header(self) -> bytes:
        return _RPC.pack(_RPC.size + self.payload_nbytes, self.type_tag, self.request_id)

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(fields[2], body, body_nbytes)

    body = property(attrgetter("payload"))
    body_nbytes = property(attrgetter("payload_nbytes"))


@dataclass
class RpcResponse(Message):
    """Reply to a successful RPC."""

    request_id: int
    payload: Any = None
    payload_nbytes: int = 0

    type_tag: ClassVar[int] = 4
    is_request: ClassVar[bool] = False
    HEADER: ClassVar[Struct] = _RPC

    def encode_header(self) -> bytes:
        return _RPC.pack(_RPC.size + self.payload_nbytes, self.type_tag, self.request_id)

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(fields[2], body, body_nbytes)

    body = property(attrgetter("payload"))
    body_nbytes = property(attrgetter("payload_nbytes"))


@dataclass
class RpcFailure(Message):
    """Reply to a failed RPC."""

    request_id: int
    error: str = ""

    type_tag: ClassVar[int] = 5
    is_request: ClassVar[bool] = False
    HEADER: ClassVar[Struct] = _RPC_FAILURE

    def encode_header(self) -> bytes:
        error = self.error.encode("utf-8")
        return _RPC_FAILURE.pack(
            _RPC_FAILURE.size + len(error), self.type_tag, self.request_id, len(error)
        ) + error

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(fields[2], _text(header, _RPC_FAILURE.size, fields[3]))


@dataclass
class OneWayMessage(Message):
    """An RPC that expects no reply (Table II).

    Tags 6-8 are Spark's stream request, response and failure messages,
    which no reproduced figure sends; they stay unassigned, so this class
    keeps Spark's tag 9.
    """

    payload: Any = None
    payload_nbytes: int = 0

    type_tag: ClassVar[int] = 9
    is_request: ClassVar[bool] = True

    def encode_header(self) -> bytes:
        return _PREFIX.pack(_PREFIX.size + self.payload_nbytes, self.type_tag)

    @classmethod
    def decode_header(cls, fields, header, body, body_nbytes):
        return cls(body, body_nbytes)

    body = property(attrgetter("payload"))
    body_nbytes = property(attrgetter("payload_nbytes"))


MESSAGE_TYPES: dict[int, type[Message]] = {
    cls.type_tag: cls
    for cls in (
        ChunkFetchRequest,
        ChunkFetchSuccess,
        ChunkFetchFailure,
        RpcRequest,
        RpcResponse,
        RpcFailure,
        OneWayMessage,
    )
}

# The bulk message types whose bodies the Optimized design routes over MPI
# (paper Sec. VI-E). The paper also routes StreamResponse bodies; no
# reproduced figure opens a stream, so that type is not modelled.
MPI_OPTIMIZED_BODY_TYPES = (ChunkFetchSuccess.type_tag,)


def ensure_trace(msg: Message, causal, parent=None):
    """Mint (or inherit) a causal trace context for ``msg``.

    This is where a Spark message acquires its identity in the causal DAG:
    a fresh root trace, or — when ``parent`` names a task or a request —
    a child span of it.  A context already attached (e.g. by the request
    handler linking a response to its request) is kept.  Returns the
    context; a no-op returning None when ``causal`` is disabled.
    """
    if not causal.enabled:
        return None
    if msg.trace_ctx is None:
        msg.trace_ctx = causal.child(parent)
    return msg.trace_ctx


def encode_message(msg: Message) -> WireFrame:
    """Message → WireFrame (header bytes + body reference)."""
    frame = WireFrame(msg.encode_header(), msg.body, msg.body_nbytes)
    frame.trace_ctx = msg.trace_ctx  # side channel, never in header bytes
    return frame


def decode_message(frame: WireFrame) -> Message:
    """WireFrame → Message (inverse of :func:`encode_message`)."""
    header = frame.header
    try:
        cls = MESSAGE_TYPES[header[_TAG_AT]]
    except IndexError:
        raise ValueError(f"truncated header: {len(header)} bytes, no type tag") from None
    except KeyError:
        raise ValueError(f"unknown message type tag {header[_TAG_AT]}") from None
    try:
        fields = cls.HEADER.unpack_from(header)
        if fields[0] < len(header):
            raise ValueError(f"frame length {fields[0]} shorter than header {len(header)}")
        msg = cls.decode_header(fields, header, frame.body, frame.body_nbytes)
    except StructError as exc:
        raise ValueError(f"truncated {cls.__name__} header: {exc}") from exc
    if frame.trace_ctx is not None:
        msg.trace_ctx = frame.trace_ctx
    return msg


def peek_message_type(frame: WireFrame) -> tuple[int, int]:
    """Parse only (type_tag, body_nbytes) from a frame header.

    This is what the Optimized design's ChannelHandlers do: inspect the
    header to decide whether an ``MPI_Recv`` must be triggered for the body
    (paper Sec. VI-E / Fig. 7).
    """
    header = frame.header
    try:
        frame_len, tag = _PREFIX.unpack_from(header)
    except StructError as exc:
        raise ValueError(f"truncated header ({len(header)} bytes): {exc}") from exc
    if frame_len < len(header):
        raise ValueError(f"frame length {frame_len} shorter than header {len(header)}")
    return tag, frame_len - len(header)
