"""Shuffle machinery internals: map-output registry, combine semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark import SparkConf, SparkContext
from repro.spark.local import MapOutputRegistry
from repro.spark.tracing import SampleTrace


def map_stage(sc):
    """The shuffle-map stage of ``sc``'s traced jobs, read the way
    ``OhbWorkload.build_profile`` reads a sample trace."""
    return SampleTrace.from_recorder(sc.tracer, "test", {}).find_stage("ShuffleMapStage")


@pytest.fixture
def sc():
    return SparkContext(SparkConf({"spark.default.parallelism": "4"}))


class TestMapOutputRegistry:
    def test_put_fetch_roundtrip(self):
        reg = MapOutputRegistry()
        reg.init_shuffle(0, num_maps=2)
        reg.put(0, 0, 1, [("a", 1)], nbytes=10)
        reg.put(0, 1, 1, [("b", 2)], nbytes=20)
        assert list(reg.fetch(0, 1)) == [("a", 1), ("b", 2)]
        assert list(reg.fetch(0, 0)) == []

    def test_fetch_unknown_shuffle_raises(self):
        with pytest.raises(KeyError):
            list(MapOutputRegistry().fetch(9, 0))

    def test_fetch_yields_map_order_then_arrival_order(self):
        reg = MapOutputRegistry()
        reg.init_shuffle(0, num_maps=3)
        reg.put(0, 2, 1, [("e", 5), ("f", 6)], nbytes=2)
        reg.put(0, 0, 1, [("a", 1), ("b", 2)], nbytes=2)
        reg.put(0, 0, 0, [("x", 0)], nbytes=1)
        reg.put(0, 1, 1, [("c", 3), ("d", 4)], nbytes=2)
        assert [k for k, _ in reg.fetch(0, 1)] == ["a", "b", "c", "d", "e", "f"]
        assert list(reg.fetch(0, 0)) == [("x", 0)]
        assert list(reg.fetch(0, 2)) == []

    def test_block_sizes_matrix(self):
        reg = MapOutputRegistry()
        reg.init_shuffle(3, num_maps=2)
        reg.put(3, 0, 0, [1], nbytes=100)
        reg.put(3, 1, 2, [2], nbytes=50)
        sizes = reg.block_sizes(3)
        assert sizes.shape == (2, 3)
        assert sizes[0, 0] == 100
        assert sizes[1, 2] == 50
        assert sizes.sum() == 150

    def test_is_computed(self):
        reg = MapOutputRegistry()
        assert not reg.is_computed(1)
        reg.init_shuffle(1, 1)
        assert reg.is_computed(1)


class TestCombineSemantics:
    def test_map_side_combine_shrinks_shuffle(self, sc):
        # reduceByKey combines map-side; groupByKey does not. For a heavily
        # repeated key-set, reduceByKey must shuffle far fewer bytes —
        # exactly why OHB uses GroupByTest to stress the network.
        data = [(i % 4, 1) for i in range(4000)]

        sc1 = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
        sc1.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).count()
        reduced_bytes = map_stage(sc1).total_shuffle_bytes

        sc2 = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
        sc2.parallelize(data, 4).group_by_key().count()
        grouped_bytes = map_stage(sc2).total_shuffle_bytes

        assert reduced_bytes * 20 < grouped_bytes

    def test_map_side_combine_correctness(self, sc):
        data = [(i % 7, i) for i in range(1000)]
        got = dict(
            sc.parallelize(data, 5).reduce_by_key(lambda a, b: a + b).collect()
        )
        expected = {}
        for k, v in data:
            expected[k] = expected.get(k, 0) + v
        assert got == expected

    def test_combiner_records_counted_in_trace(self, sc):
        sc.parallelize([(1, 1)] * 100, 2).reduce_by_key(lambda a, b: a + b).count()
        trace = map_stage(sc)
        # Map-side combine: each map partition emits one combiner for key 1.
        assert trace.shuffle_records.sum() == 2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), min_size=1, max_size=60))
    def test_shuffle_matrix_conservation(self, pairs):
        # Property: the shuffle write matrix column sums equal what each
        # reduce partition actually receives.
        sc = SparkContext(SparkConf({"spark.default.parallelism": "3"}))
        rdd = sc.parallelize(pairs, 3).group_by_key(3)
        collected = rdd.collect()
        trace = map_stage(sc)
        assert trace.shuffle_records.sum() == len(pairs)
        got_records = sum(len(vs) for _, vs in collected)
        assert got_records == len(pairs)


class TestShuffleStageInteraction:
    def test_two_shuffles_independent(self, sc):
        a = sc.parallelize([(1, "a")], 2).group_by_key(2)
        b = sc.parallelize([(1, "b")], 2).group_by_key(2)
        assert dict(a.collect()) == {1: ["a"]}
        assert dict(b.collect()) == {1: ["b"]}

    def test_shuffle_feeding_shuffle(self, sc):
        result = (
            sc.range(100)
            .map(lambda x: (x % 10, 1))
            .reduce_by_key(lambda a, b: a + b, 4)  # (k, 10) x 10
            .map(lambda kv: (kv[1], kv[0]))
            .group_by_key(2)
        )
        groups = dict(result.collect())
        assert sorted(groups[10]) == list(range(10))
