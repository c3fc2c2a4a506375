"""ByteBuf: Netty's byte container with independent reader/writer indices.

The connection handshake (paper Sec. VI-B) exchanges MPI ranks as real
bytes in a ``PooledDirectByteBuf``; this is that buffer. Spark message
headers are encoded by :mod:`repro.spark.messages` directly.
"""

from __future__ import annotations

import struct

_unpack_from = struct.unpack_from


class ByteBufError(RuntimeError):
    """Out-of-bounds read or malformed buffer content."""


class ByteBuf:
    """A growable byte buffer with a ``reader_index``.

    Only the operations the handshake needs are implemented: byte and
    long (8B big-endian).

    Buffers are copy-on-write: wrapping immutable ``bytes`` (or a
    ``memoryview``) stores the object as-is, and the first write converts
    to a private ``bytearray``. A ``bytearray`` input is copied up front,
    preserving isolation from the caller's buffer.
    """

    __slots__ = ("_data", "reader_index")

    def __init__(self, data: bytes | bytearray | memoryview = b"") -> None:
        self._data = bytearray(data) if type(data) is bytearray else data
        self.reader_index = 0

    def _writable(self) -> bytearray:
        data = self._data
        if type(data) is not bytearray:
            data = self._data = bytearray(data)
        return data

    # -- writes --------------------------------------------------------------
    def write_byte(self, value: int) -> "ByteBuf":
        if not 0 <= value < 256:
            raise ByteBufError(f"byte out of range: {value}")
        self._writable().append(value)
        return self

    def write_long(self, value: int) -> "ByteBuf":
        self._writable().extend(struct.pack(">q", value))
        return self

    # -- reads ---------------------------------------------------------------
    def _take(self, n: int) -> bytes:
        ri = self.reader_index
        data = self._data
        if len(data) - ri < n:
            raise ByteBufError(
                f"read of {n} bytes but only {len(data) - ri} readable"
            )
        self.reader_index = ri + n
        chunk = data[ri : ri + n]
        return chunk if type(chunk) is bytes else bytes(chunk)

    def read_byte(self) -> int:
        return self._take(1)[0]

    def read_long(self) -> int:
        ri = self.reader_index
        if len(self._data) - ri < 8:
            raise ByteBufError(
                f"read of 8 bytes but only {len(self._data) - ri} readable"
            )
        self.reader_index = ri + 8
        return _unpack_from(">q", self._data, ri)[0]


class PooledByteBufAllocator:
    """Allocation bookkeeping standing in for Netty's pooled allocator.

    The paper notes MPI ranks are exchanged "through the Netty Java sockets
    using PooledDirectByteBufs" — we track allocation counts/bytes so tests
    can assert the connection-establishment path really goes through here.
    """

    def __init__(self) -> None:
        self.allocations = 0
        self.bytes_allocated = 0

    def direct_buffer(self, initial: bytes = b"") -> ByteBuf:
        self.allocations += 1
        self.bytes_allocated += len(initial)
        return ByteBuf(initial)
