"""Unit + property tests for repro.util.serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.serialization import (
    SizedPayload,
    estimate_batch,
    estimate_size,
    size_cache_stats,
    sizeof,
)


class TestSizeof:
    def test_primitives_flat(self):
        assert sizeof(7) == 8
        assert sizeof(3.14) == 8
        assert sizeof(True) == 1
        assert sizeof(None) == 1

    def test_bytes_exact(self):
        assert sizeof(b"x" * 100) == 100
        assert sizeof(bytearray(32)) == 32

    def test_str_utf8(self):
        assert sizeof("abc") == 3
        assert sizeof("é") == 2

    def test_containers_sum_members(self):
        assert sizeof((1, 2.0)) == 8 + 8 + 8
        assert sizeof([b"ab", b"cd"]) == 8 + 4
        assert sizeof({"k": 1}) == 16 + 1 + 8

    def test_numpy_uses_nbytes(self):
        arr = np.zeros(1000, dtype=np.float64)
        assert sizeof(arr) == 8000

    def test_sized_payload_wins(self):
        payload = SizedPayload(data=b"tiny", nbytes=4 * 1024 * 1024)
        assert sizeof(payload) == 4 * 1024 * 1024

    def test_opaque_object_has_token_cost(self):
        class Weird:
            def __reduce__(self):
                raise TypeError("nope")

        assert sizeof(Weird()) == 64

    @given(st.lists(st.integers(), max_size=50))
    def test_list_size_monotone_in_length(self, xs):
        assert sizeof(xs + [0]) > sizeof(xs)


class TestSizedPayload:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SizedPayload(b"", -1)


# Record shapes the batched data plane actually emits, plus awkward ones
# (mixed arity, strings, nesting, non-tuples) that must hit the fallback.
_record = st.recursive(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
        st.binary(max_size=40),
        st.text(max_size=10),
    ),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)


class TestEstimateBatch:
    @given(st.lists(_record, max_size=30))
    def test_exactly_equals_per_record_sum(self, records):
        # The shuffle data plane's invariant: batch sizing is the exact
        # per-record sum, for every shape mix.
        assert estimate_batch(records) == sum(
            estimate_size(r) for r in records
        )

    def test_uniform_kv_bucket_fast_path(self):
        bucket = [(k, bytes(64)) for k in range(500)]
        assert estimate_batch(bucket) == 500 * (8 + 8 + 64)

    def test_accepts_iterators(self):
        assert estimate_batch(iter([(1, b"ab"), (2, b"cd")])) == 2 * (8 + 8 + 2)

    def test_empty(self):
        assert estimate_batch([]) == 0


class TestShapeMemoExtensions:
    def test_numpy_scalar_cached(self):
        before = size_cache_stats()
        assert estimate_size(np.float64(1.5)) == 8
        assert estimate_size(np.float64(2.5)) == 8
        after = size_cache_stats()
        assert after[0] > before[0]  # second call was a hit

    def test_ndarray_shape_cached_by_dtype_and_shape(self):
        a = np.zeros(10, dtype=np.float64)
        b = np.ones(10, dtype=np.float64)
        before = size_cache_stats()
        assert estimate_size(a) == a.nbytes
        assert estimate_size(b) == b.nbytes  # same (dtype, shape): memo hit
        after = size_cache_stats()
        assert after[0] > before[0]
        # different shape sizes independently (no stale entry reuse)
        assert estimate_size(np.zeros((2, 3), dtype=np.int64)) == 48

    def test_tuple_of_ndarray_cached(self):
        rec = (1.0, np.zeros(8))
        assert estimate_size(rec) == 8 + 8 + 64  # tuple + float + arr
