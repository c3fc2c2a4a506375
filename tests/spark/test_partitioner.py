"""Partitioner batched-path equivalence.

``partition_many`` must return an ``intp`` array whose ``tolist()`` is
exactly ``[partition(k) for k in keys]`` for every key population — the shuffle data plane's traffic matrices are
byte-identical to the per-record loop only if this identity is exact,
including on the populations that must *miss* the vectorized paths
(bools, negatives, huge ints, floats, mixed types).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.spark.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)

# Int populations chosen to straddle the vectorized path's guards:
# in-range non-negative ints take the numpy route, negatives / >= 2**61-1
# / > int64 fall back, bools are ints to `isinstance` but not to `type`.
_any_int = st.one_of(
    st.integers(0, 2**61 - 2),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
_any_key = st.one_of(
    _any_int,
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(), st.integers()),
)


def many(p, keys):
    """``p.partition_many(keys)`` as a list, after checking its type."""
    got = p.partition_many(keys)
    assert isinstance(got, np.ndarray) and got.dtype == np.intp
    return got.tolist()


class TestHashPartitionMany:
    @given(st.lists(_any_int, max_size=60), st.integers(1, 9))
    def test_matches_per_key_on_ints(self, keys, n):
        p = HashPartitioner(n)
        assert many(p, keys) == [p.partition(k) for k in keys]

    @given(st.lists(_any_key, max_size=40), st.integers(1, 9))
    def test_matches_per_key_on_anything(self, keys, n):
        p = HashPartitioner(n)
        assert many(p, keys) == [p.partition(k) for k in keys]

    def test_all_results_in_range(self):
        p = HashPartitioner(4)
        for rid in many(p, list(range(-50, 50))):
            assert 0 <= rid < 4


class TestRangePartitionMany:
    @given(
        st.lists(st.integers(-(2**70), 2**70), max_size=60),
        st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=6),
        st.booleans(),
    )
    def test_matches_per_key_on_ints(self, keys, bounds, ascending):
        p = RangePartitioner(sorted(bounds), ascending=ascending)
        assert many(p, keys) == [p.partition(k) for k in keys]

    @given(
        st.lists(st.floats(allow_nan=False), max_size=40),
        st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=5),
        st.booleans(),
    )
    def test_matches_per_key_on_floats(self, keys, bounds, ascending):
        # Floats never vectorize (the guard is type-exact); the identity
        # must still hold through the fallback.
        p = RangePartitioner(sorted(bounds), ascending=ascending)
        assert many(p, keys) == [p.partition(k) for k in keys]

    @given(st.lists(st.text(max_size=6), max_size=30))
    def test_matches_per_key_on_strings(self, keys):
        p = RangePartitioner(["g", "q"])
        assert many(p, keys) == [p.partition(k) for k in keys]

    def test_boundary_keys_side_left(self):
        # A key equal to a bound lands left of it, same as bisect_left.
        p = RangePartitioner([10, 20])
        assert many(p, [9, 10, 11, 20, 21]) == [0, 0, 1, 1, 2]

    def test_descending_flips(self):
        p = RangePartitioner([10, 20], ascending=False)
        assert many(p, [9, 10, 11, 20, 21]) == [2, 2, 1, 1, 0]


class TestBasePartitionMany:
    def test_base_class_loops(self):
        class Mod3(Partitioner):
            def partition(self, key):
                return key % self.num_partitions

        p = Mod3(3)
        assert many(p, [0, 1, 2, 3, 4]) == [0, 1, 2, 0, 1]
