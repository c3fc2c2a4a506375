"""Unit + property tests for ByteBuf and frame encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netty.bytebuf import ByteBuf, ByteBufError, PooledByteBufAllocator
from repro.netty.frame import WireFrame


class TestByteBuf:
    def test_write_read_roundtrip(self):
        buf = ByteBuf()
        buf.write_byte(7).write_int(-123).write_long(1 << 40).write_string("hello")
        assert buf.read_byte() == 7
        assert buf.read_int() == -123
        assert buf.read_long() == 1 << 40
        assert buf.read_string() == "hello"
        assert buf.readable_bytes() == 0

    def test_big_endian_layout(self):
        buf = ByteBuf()
        buf.write_int(1)
        assert buf.to_bytes() == b"\x00\x00\x00\x01"

    def test_read_past_end_raises(self):
        with pytest.raises(ByteBufError):
            ByteBuf(b"ab").read_int()

    def test_byte_range_check(self):
        with pytest.raises(ByteBufError):
            ByteBuf().write_byte(256)

    def test_reader_writer_independence(self):
        buf = ByteBuf()
        buf.write_int(1)
        assert buf.read_int() == 1
        buf.write_int(2)
        assert buf.read_int() == 2

    def test_peek_does_not_consume(self):
        buf = ByteBuf()
        buf.write_long(99).write_byte(3)
        assert buf.peek_long() == 99
        assert buf.peek_byte(8) == 3
        assert buf.read_long() == 99  # still there

    def test_peek_past_end_raises(self):
        with pytest.raises(ByteBufError):
            ByteBuf(b"x").peek_long()

    def test_negative_string_length_rejected(self):
        buf = ByteBuf()
        buf.write_int(-5)
        with pytest.raises(ByteBufError):
            buf.read_string()

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**63), 2**63 - 1))
    def test_int_long_roundtrip_property(self, i, l):
        buf = ByteBuf()
        buf.write_int(i).write_long(l)
        assert buf.read_int() == i
        assert buf.read_long() == l

    @given(st.text(max_size=200))
    def test_string_roundtrip_property(self, text):
        buf = ByteBuf()
        buf.write_string(text)
        assert buf.read_string() == text

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

    def test_header_buf(self):
        frame = WireFrame(header=b"\x00\x01")
        buf = frame.header_buf()
        assert buf.read_byte() == 0
        assert buf.read_byte() == 1
