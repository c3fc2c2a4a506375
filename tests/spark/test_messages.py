"""Codec tests for the Table II message types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spark.messages import (
    MESSAGE_TYPES,
    MPI_OPTIMIZED_BODY_TYPES,
    ChunkFetchFailure,
    ChunkFetchRequest,
    ChunkFetchSuccess,
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
    peek_message_type,
)


def roundtrip(msg):
    return decode_message(encode_message(msg))


class TestRoundTrips:
    def test_chunk_fetch_request(self):
        msg = ChunkFetchRequest(StreamChunkId(42, 7), num_blocks=12)
        got = roundtrip(msg)
        assert got == msg

    def test_chunk_fetch_success_with_body(self):
        msg = ChunkFetchSuccess(
            StreamChunkId(1, 2), chunk={"block": "meta"}, chunk_nbytes=4096, num_blocks=3
        )
        got = roundtrip(msg)
        assert got.stream_chunk_id == msg.stream_chunk_id
        assert got.chunk == {"block": "meta"}
        assert got.chunk_nbytes == 4096
        assert got.num_blocks == 3

    def test_chunk_fetch_failure(self):
        got = roundtrip(ChunkFetchFailure(StreamChunkId(9, 0), "block missing"))
        assert got.error == "block missing"

    def test_rpc_request_response(self):
        req = roundtrip(RpcRequest(77, payload=("open", [1, 2]), payload_nbytes=64))
        assert req.request_id == 77 and req.payload == ("open", [1, 2])
        resp = roundtrip(RpcResponse(77, payload="ok", payload_nbytes=2))
        assert resp.request_id == 77 and resp.payload == "ok"

    def test_rpc_failure(self):
        got = roundtrip(RpcFailure(5, "no such endpoint"))
        assert (got.request_id, got.error) == (5, "no such endpoint")

    def test_stream_request_response(self):
        got = roundtrip(StreamRequest("jars/app.jar"))
        assert got.stream_id == "jars/app.jar"
        resp = roundtrip(StreamResponse("jars/app.jar", 10_000, data=b"sample"))
        assert resp.byte_count == 10_000
        assert resp.data == b"sample"

    def test_stream_failure(self):
        got = roundtrip(StreamFailure("x", "denied"))
        assert got.error == "denied"

    def test_one_way(self):
        got = roundtrip(OneWayMessage(payload={"hb": 1}, payload_nbytes=10))
        assert got.payload == {"hb": 1}


class TestFrameProperties:
    def test_type_tags_unique_and_spark_like(self):
        assert len(MESSAGE_TYPES) == 10
        assert ChunkFetchRequest.type_tag == 0
        assert ChunkFetchSuccess.type_tag == 1
        assert RpcRequest.type_tag == 3
        assert OneWayMessage.type_tag == 9

    def test_body_rides_outside_header(self):
        msg = ChunkFetchSuccess(StreamChunkId(1, 1), chunk=b"x", chunk_nbytes=1 << 20)
        frame = encode_message(msg)
        assert len(frame.header) < 64
        assert frame.body_nbytes == 1 << 20
        assert frame.nbytes == len(frame.header) + (1 << 20)

    def test_peek_message_type(self):
        frame = encode_message(
            ChunkFetchSuccess(StreamChunkId(1, 1), chunk=b"", chunk_nbytes=500)
        )
        tag, body = peek_message_type(frame)
        assert tag == ChunkFetchSuccess.type_tag
        assert body == 500

    def test_optimized_body_types_are_the_papers_two(self):
        # Sec. VI-E: only ChunkFetchSuccess and StreamResponse go over MPI.
        assert ChunkFetchSuccess.type_tag in MPI_OPTIMIZED_BODY_TYPES
        assert StreamResponse.type_tag in MPI_OPTIMIZED_BODY_TYPES
        assert len(MPI_OPTIMIZED_BODY_TYPES) == 2

    def test_request_response_classification(self):
        assert ChunkFetchRequest.is_request and not ChunkFetchSuccess.is_request
        assert RpcRequest.is_request and not RpcResponse.is_request
        assert StreamRequest.is_request and not StreamResponse.is_request
        assert OneWayMessage.is_request

    @given(st.integers(0, 2**62), st.integers(0, 2**31 - 1), st.integers(1, 10**6))
    def test_chunk_roundtrip_property(self, stream_id, chunk_index, nbytes):
        msg = ChunkFetchSuccess(
            StreamChunkId(stream_id, chunk_index), chunk=None, chunk_nbytes=0
        )
        got = roundtrip(msg)
        assert got.stream_chunk_id == msg.stream_chunk_id

    @given(st.text(max_size=100), st.integers(0, 2**50))
    def test_stream_response_property(self, sid, count):
        got = roundtrip(StreamResponse(sid, count, data=None))
        assert got.stream_id == sid and got.byte_count == count


# -- the struct codec against a ByteBuf-built reference -----------------------

def reference_header(msg) -> bytes:
    """The header as Spark's field-by-field encoders build it: big-endian
    ints and longs, strings as an int length then UTF-8 bytes."""

    def long_(v):
        return v.to_bytes(8, "big", signed=True)

    def int_(v):
        return v.to_bytes(4, "big", signed=True)

    def str_(text):
        encoded = text.encode("utf-8")
        return int_(len(encoded)) + encoded

    if isinstance(msg, (ChunkFetchRequest, ChunkFetchSuccess, ChunkFetchFailure)):
        fields = long_(msg.stream_chunk_id.stream_id) + int_(msg.stream_chunk_id.chunk_index)
        if isinstance(msg, ChunkFetchFailure):
            fields += str_(msg.error)
        else:
            fields += int_(msg.num_blocks)
    elif isinstance(msg, (RpcRequest, RpcResponse, RpcFailure)):
        fields = long_(msg.request_id)
        if isinstance(msg, RpcFailure):
            fields += str_(msg.error)
    elif isinstance(msg, (StreamRequest, StreamResponse, StreamFailure)):
        fields = str_(msg.stream_id)
        if isinstance(msg, StreamResponse):
            fields += long_(msg.byte_count)
        elif isinstance(msg, StreamFailure):
            fields += str_(msg.error)
    else:
        assert isinstance(msg, OneWayMessage)
        fields = b""
    # Length prefix (8) + type tag (1) + fields, then the body's size.
    return long_(9 + len(fields) + msg.body_nbytes) + bytes([msg.type_tag]) + fields


_longs = st.integers(0, 2**62)
_ints = st.integers(0, 2**31 - 1)
_sizes = st.integers(0, 2**40)
_chunk_ids = st.builds(StreamChunkId, _longs, _ints)
_texts = st.text(max_size=60)
_bodies = st.sampled_from([None, b"bytes", ("tuple", 1)])

BUILDERS = {
    ChunkFetchRequest: st.builds(ChunkFetchRequest, _chunk_ids, _ints),
    ChunkFetchSuccess: st.builds(ChunkFetchSuccess, _chunk_ids, _bodies, _sizes, _ints),
    ChunkFetchFailure: st.builds(ChunkFetchFailure, _chunk_ids, _texts),
    RpcRequest: st.builds(RpcRequest, _longs, _bodies, _sizes),
    RpcResponse: st.builds(RpcResponse, _longs, _bodies, _sizes),
    RpcFailure: st.builds(RpcFailure, _longs, _texts),
    StreamRequest: st.builds(StreamRequest, _texts),
    StreamResponse: st.builds(StreamResponse, _texts, _sizes, _bodies),
    StreamFailure: st.builds(StreamFailure, _texts, _texts),
    OneWayMessage: st.builds(OneWayMessage, _bodies, _sizes),
}
MESSAGES = st.one_of(*BUILDERS.values())


class TestStructCodec:
    def test_strategy_covers_every_message_type(self):
        assert set(BUILDERS) == set(MESSAGE_TYPES.values())

    @given(MESSAGES)
    def test_header_bytes_match_the_field_by_field_reference(self, msg):
        frame = encode_message(msg)
        assert frame.header == reference_header(msg)
        assert frame.body is msg.body and frame.body_nbytes == msg.body_nbytes
        assert peek_message_type(frame) == (msg.type_tag, msg.body_nbytes)

    @given(MESSAGES)
    def test_decode_inverts_encode(self, msg):
        assert roundtrip(msg) == msg

    @given(MESSAGES, st.data())
    def test_truncated_header_raises_value_error(self, msg, data):
        header = encode_message(msg).header
        cut = data.draw(st.integers(0, len(header) - 1))
        frame = encode_message(msg)
        frame.header = header[:cut]
        with pytest.raises(ValueError):
            decode_message(frame)

    @given(MESSAGES, st.integers(len(MESSAGE_TYPES), 255))
    def test_unknown_tag_raises_value_error(self, msg, tag):
        frame = encode_message(msg)
        frame.header = frame.header[:8] + bytes([tag]) + frame.header[9:]
        with pytest.raises(ValueError, match="unknown message type tag"):
            decode_message(frame)

    def test_peek_rejects_short_and_inconsistent_headers(self):
        frame = encode_message(RpcRequest(1, None, 0))
        frame.header = frame.header[:5]
        with pytest.raises(ValueError):
            peek_message_type(frame)
        frame.header = (3).to_bytes(8, "big") + b"\x03" + bytes(8)
        with pytest.raises(ValueError, match="shorter than header"):
            peek_message_type(frame)
        with pytest.raises(ValueError, match="shorter than header"):
            decode_message(frame)
