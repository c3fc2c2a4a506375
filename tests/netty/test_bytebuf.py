"""Unit + property tests for ByteBuf and frame encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netty.bytebuf import ByteBuf, ByteBufError, PooledByteBufAllocator
from repro.netty.frame import WireFrame


class TestByteBuf:
    def test_write_read_roundtrip(self):
        buf = ByteBuf()
        buf.write_byte(7).write_long(1 << 40).write_long(-5)
        assert buf.read_byte() == 7
        assert buf.read_long() == 1 << 40
        assert buf.read_long() == -5
        with pytest.raises(ByteBufError):
            buf.read_byte()

    def test_read_past_end_raises(self):
        with pytest.raises(ByteBufError):
            ByteBuf(b"abcd").read_long()

    def test_byte_range_check(self):
        with pytest.raises(ByteBufError):
            ByteBuf().write_byte(256)

    def test_reader_writer_independence(self):
        buf = ByteBuf()
        buf.write_long(1)
        assert buf.read_long() == 1
        buf.write_long(2)
        assert buf.read_long() == 2

    @given(st.integers(0, 255), st.integers(-(2**63), 2**63 - 1))
    def test_byte_long_roundtrip_property(self, b, l):
        buf = ByteBuf()
        buf.write_byte(b).write_long(l)
        assert buf.read_byte() == b
        assert buf.read_long() == l

    def test_allocator_accounting(self):
        alloc = PooledByteBufAllocator()
        alloc.direct_buffer(b"abcd")
        alloc.direct_buffer()
        assert alloc.allocations == 2
        assert alloc.bytes_allocated == 4


class TestWireFrame:
    def test_nbytes_sums_header_and_body(self):
        frame = WireFrame(header=b"12345", body=object(), body_nbytes=100)
        assert frame.nbytes == 105

    def test_size_only_body_allowed(self):
        # Trace-driven payloads charge bytes without materializing data.
        frame = WireFrame(header=b"h", body=None, body_nbytes=10)
        assert frame.nbytes == 11

    def test_negative_body_rejected(self):
        with pytest.raises(ValueError):
            WireFrame(header=b"h", body="x", body_nbytes=-1)
