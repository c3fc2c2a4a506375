"""RDD operator correctness on the local backend."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark import SparkConf, SparkContext


@pytest.fixture
def sc():
    return SparkContext(SparkConf({"spark.default.parallelism": "4"}))


class TestCreation:
    def test_parallelize_collect(self, sc):
        assert sc.parallelize([3, 1, 2], 2).collect() == [3, 1, 2]

    def test_range(self, sc):
        assert sc.range(10, 3).collect() == list(range(10))

    def test_generated(self, sc):
        rdd = sc.generated(3, lambda split: [split] * 2)
        assert rdd.collect() == [0, 0, 1, 1, 2, 2]

    def test_partition_count_clamped(self, sc):
        rdd = sc.parallelize([1], 100)
        assert rdd.num_partitions == 1

    def test_empty_partitions_allowed(self, sc):
        assert sc.parallelize([], 1).collect() == []


class TestNarrowOps:
    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3]).map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_flat_map(self, sc):
        rdd = sc.parallelize(["a b", "c"]).flat_map(str.split)
        assert rdd.collect() == ["a", "b", "c"]

    def test_map_values(self, sc):
        rdd = sc.parallelize([("a", 1), ("b", 2)]).map_values(lambda v: v + 1)
        assert rdd.collect() == [("a", 2), ("b", 3)]

    def test_pipelined_chain(self, sc):
        result = (
            sc.range(100)
            .map(lambda x: x + 1)
            .flat_map(lambda x: [x] if x % 3 == 0 else [])
            .map(lambda x: x * 2)
            .collect()
        )
        assert result == [2 * x for x in range(1, 101) if x % 3 == 0]


class TestWideOps:
    def test_group_by_key(self, sc):
        rdd = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2).group_by_key(3)
        result = dict(rdd.collect())
        assert sorted(result["a"]) == [1, 3]
        assert result["b"] == [2]

    def test_reduce_by_key(self, sc):
        rdd = sc.parallelize([("x", 1)] * 10 + [("y", 2)] * 5, 3)
        assert dict(rdd.reduce_by_key(lambda a, b: a + b).collect()) == {"x": 10, "y": 10}

    def test_sort_by_key(self, sc):
        data = [(k, None) for k in [5, 3, 8, 1, 9, 2, 7]]
        rdd = sc.parallelize(data, 3).sort_by_key(num_partitions=2)
        assert [k for k, _ in rdd.collect()] == [1, 2, 3, 5, 7, 8, 9]

    def test_sort_by_key_descending(self, sc):
        data = [(k, None) for k in [5, 3, 8]]
        rdd = sc.parallelize(data, 2).sort_by_key(ascending=False, num_partitions=2)
        assert [k for k, _ in rdd.collect()] == [8, 5, 3]

    def test_repartition(self, sc):
        rdd = sc.parallelize(list(range(10)), 2).repartition(5)
        assert rdd.num_partitions == 5
        assert sorted(rdd.collect()) == list(range(10))

    def test_join(self, sc):
        a = sc.parallelize([("k", 1), ("k", 2), ("q", 9)], 2)
        b = sc.parallelize([("k", "x"), ("z", "y")], 2)
        result = sorted(a.join(b).collect())
        assert result == [("k", (1, "x")), ("k", (2, "x"))]

    def test_cogroup(self, sc):
        a = sc.parallelize([("k", 1), ("k", 2)], 2)
        b = sc.parallelize([("k", "x"), ("m", "y")], 2)
        result = dict(a.cogroup(b).collect())
        assert sorted(result["k"][0]) == [1, 2]
        assert result["k"][1] == ["x"]
        assert result["m"] == ([], ["y"])


class TestActions:
    def test_count(self, sc):
        assert sc.range(1000, 7).count() == 1000


class TestCaching:
    def test_cache_avoids_recompute(self, sc):
        computations = []

        def track(x):
            computations.append(x)
            return x

        rdd = sc.range(4, 2).map(track).cache()
        rdd.collect()
        rdd.collect()
        assert len(computations) == 4  # second collect served from cache

    def test_uncached_recomputes(self, sc):
        computations = []
        rdd = sc.range(4, 2).map(lambda x: computations.append(x) or x)
        rdd.collect()
        rdd.collect()
        assert len(computations) == 8


class TestStoppedContext:
    def test_run_after_stop_raises(self, sc):
        sc.stop()
        with pytest.raises(RuntimeError):
            sc.range(3).collect()

    def test_context_manager(self):
        with SparkContext() as sc:
            assert sc.range(3).count() == 3


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), max_size=60),
        st.integers(1, 6),
    )
    def test_collect_preserves_order(self, data, parts):
        sc = SparkContext()
        assert sc.parallelize(data, parts).collect() == data

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 10), st.integers()), max_size=60),
        st.integers(1, 5),
    )
    def test_reduce_by_key_matches_dict(self, pairs, parts):
        sc = SparkContext()
        got = dict(
            sc.parallelize(pairs, parts).reduce_by_key(lambda a, b: a + b).collect()
        )
        expected = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=80), st.integers(1, 5))
    def test_sort_by_key_sorts(self, keys, parts):
        sc = SparkContext()
        rdd = sc.parallelize([(k, None) for k in keys], parts).sort_by_key(
            num_partitions=3
        )
        assert [k for k, _ in rdd.collect()] == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
    def test_repartition_preserves_multiset(self, data, n):
        sc = SparkContext()
        got = sc.parallelize(data, 2).repartition(n).collect()
        assert sorted(got) == sorted(data)
