"""The batched local data plane against its per-record reference.

Sample traces are the input of every simulated figure, so the data plane
that produces them may get faster but never different. This file embeds
the per-record form of each batched step:

* datagen: one ``random.Random(seed + split).randint(0, num_pairs)`` per
  pair (the batched form draws the same MT19937 words through numpy);
* result-stage record counting: a generator that counts what it yields;
* map-side bucketing: one ``append`` per record (the batched form is a
  stable argsort of the reduce ids);
* bucket sizing: ``zip(*records)`` columns;
* the ``sortByKey`` reservoir sample: ``randint(0, i)`` per record;
* the reduce side of ``groupByKey``: the generic ``create_combiner`` /
  ``merge_value`` loop (the batched form groups into lists directly).

Each workload runs twice in one process — batched, then with the
reference swapped in — with the id counters reset before each run, and
every ``StageTrace`` field must be equal with ``==``. A batched step that
draws, buckets, counts or sizes one record differently fails here.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random

import numpy as np
import pytest

from repro.spark import SparkConf, SparkContext
from repro.spark import dag, partitioner, rdd
from repro.spark.local import LocalBackend, LocalTaskContext, MapOutputRegistry
from repro.spark.tracing import StageTrace
from repro.util.serialization import _PRIMITIVE_SIZES, estimate_size, sizeof
from repro.workloads import ohb
from repro.workloads.hibench.suite import SAMPLE_PROGRAMS, SPECS
from repro.workloads.ohb import GROUP_BY, SORT_BY

# -- the per-record reference -------------------------------------------------


def ref_randint_stream(seed, high, count):
    rng = random.Random(seed)
    return [rng.randint(0, high) for _ in range(count)]


def ref_sample_for_range_bounds(records, num_partitions, seed=17):
    target = partitioner.SAMPLE_SIZE_PER_PARTITION * num_partitions
    rng = random.Random(seed)
    reservoir = []
    for i, key in enumerate(records):
        if len(reservoir) < target:
            reservoir.append(key)
        else:
            j = rng.randint(0, i)
            if j < target:
                reservoir[j] = key
    return reservoir


def ref_estimate_batch(records):
    records = list(records)
    n = len(records)
    if n == 0:
        return 0
    if n > 1 and set(map(type, records)) == {tuple} and len(set(map(len, records))) == 1:
        total = 8 * n
        for col in zip(*records):
            col_types = set(map(type, col))
            if len(col_types) == 1:
                (ct,) = col_types
                flat = _PRIMITIVE_SIZES.get(ct)
                if flat is not None:
                    total += flat * n
                    continue
                if ct is bytes or ct is bytearray:
                    total += sum(map(len, col))
                    continue
            total += sum(map(estimate_size, col))
        return total
    return sum(map(estimate_size, records))


def ref_fetch(self, shuffle_id, reduce_id):
    if shuffle_id not in self._outputs:
        raise KeyError(f"shuffle {shuffle_id} has not been computed")
    for map_out in self._outputs[shuffle_id]:
        bucket = map_out.get(reduce_id)
        if bucket is not None:
            yield from bucket[0]


def ref_run_shuffle_map_stage(self, job, stage):
    dep = stage.shuffle_dep
    n_maps = stage.num_tasks
    n_reds = dep.partitioner.num_partitions
    self.map_outputs.init_shuffle(dep.shuffle_id, n_maps)
    trace = StageTrace(
        stage_id=stage.id,
        label=job.label_of(stage),
        kind=stage.kind(),
        num_tasks=n_maps,
        shuffle_id=dep.shuffle_id,
        shuffle_matrix=np.zeros((n_maps, n_reds), dtype=np.int64),
        shuffle_records=np.zeros((n_maps, n_reds), dtype=np.int64),
    )
    agg = dep.aggregator
    for map_id in range(n_maps):
        task_ctx = LocalTaskContext(self)
        buckets = [None] * n_reds
        records_in = 0
        for kv in stage.rdd.iterator(map_id, task_ctx):
            records_in += 1
            k = kv[0]
            rid = dep.partitioner.partition(k)
            if dep.map_side_combine and agg is not None:
                v = kv[1]
                bucket = buckets[rid]
                if bucket is None:
                    bucket = buckets[rid] = {}
                if k in bucket:
                    bucket[k] = agg.merge_value(bucket[k], v)
                else:
                    bucket[k] = agg.create_combiner(v)
            else:
                bucket = buckets[rid]
                if bucket is None:
                    bucket = buckets[rid] = []
                bucket.append(kv)
        records_out = bytes_out = 0
        for rid, bucket in enumerate(buckets):
            if not bucket:
                continue
            if isinstance(bucket, dict):
                bucket = list(bucket.items())
            nbytes = ref_estimate_batch(bucket)
            self.map_outputs.put(dep.shuffle_id, map_id, rid, bucket, nbytes)
            trace.shuffle_matrix[map_id, rid] = nbytes
            trace.shuffle_records[map_id, rid] = len(bucket)
            records_out += len(bucket)
            bytes_out += nbytes
        trace.records_in.append(records_in)
        trace.records_out.append(records_out)
        trace.bytes_out.append(bytes_out)
    return trace


def ref_run_result_stage(self, job, stage):
    trace = StageTrace(
        stage_id=stage.id,
        label=job.label_of(stage),
        kind=stage.kind(),
        num_tasks=len(job.partitions),
    )
    shuffle_deps = [d for d in stage.rdd.deps if isinstance(d, rdd.ShuffleDependency)]
    if shuffle_deps:
        n_maps = max(d.parent.num_partitions for d in shuffle_deps)
        trace.fetch_matrix = np.zeros((stage.rdd.num_partitions, n_maps), dtype=np.int64)
        for d in shuffle_deps:
            sizes = self.map_outputs.block_sizes(d.shuffle_id)
            n_red = min(sizes.shape[1], stage.rdd.num_partitions)
            trace.fetch_matrix[:n_red, : sizes.shape[0]] += sizes[:, :n_red].T
    results = []
    for pid in job.partitions:
        task_ctx = LocalTaskContext(self)
        records = 0

        def counting(it):
            nonlocal records
            for x in it:
                records += 1
                yield x

        value = job.func(counting(stage.rdd.iterator(pid, task_ctx)))
        results.append(value)
        trace.records_in.append(records)
        trace.records_out.append(1)
        trace.bytes_out.append(sizeof(value))
    return results, trace


def ref_shuffled_compute(self, split, task_ctx):
    dep = self.deps[0]
    records = task_ctx.shuffle_fetch(dep, split)
    agg = dep.aggregator
    if agg is not None:
        if dep.map_side_combine:
            create, merge = (lambda c: c), agg.merge_combiners
        else:
            create, merge = agg.create_combiner, agg.merge_value
        combined = {}
        for k, v in records:
            combined[k] = merge(combined[k], v) if k in combined else create(v)
        records = iter(combined.items())
    if dep.key_ordering:
        records = iter(
            sorted(records, key=operator.itemgetter(0), reverse=not dep.ascending)
        )
    return records


def _use_reference(mp):
    mp.setattr(ohb, "randint_stream", ref_randint_stream)
    mp.setattr(rdd, "sample_for_range_bounds", ref_sample_for_range_bounds)
    mp.setattr(rdd, "_count_iter", lambda it: sum(1 for _ in it))
    mp.setattr(MapOutputRegistry, "fetch", ref_fetch)
    mp.setattr(LocalBackend, "_run_shuffle_map_stage", ref_run_shuffle_map_stage)
    mp.setattr(LocalBackend, "_run_result_stage", ref_run_result_stage)
    mp.setattr(rdd.ShuffledRDD, "compute", ref_shuffled_compute)


# -- comparison ---------------------------------------------------------------


def _fresh_ids(mp):
    mp.setattr(dag.Stage, "_ids", itertools.count(0))
    mp.setattr(rdd.RDD, "_ids", itertools.count(0))
    mp.setattr(rdd.ShuffleDependency, "_shuffle_ids", itertools.count(0))


def _field_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool((a == b).all())
        )
    return type(a) is type(b) and a == b


def assert_same_stages(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(StageTrace):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert _field_equal(a, b), f"{w.label}.{f.name}: {a!r} != {b!r}"


def batched_and_reference(run):
    """``run()`` once batched and once on the reference, ids reset each time."""
    with pytest.MonkeyPatch.context() as mp:
        _fresh_ids(mp)
        got = run()
    with pytest.MonkeyPatch.context() as mp:
        _fresh_ids(mp)
        _use_reference(mp)
        want = run()
    return got, want


# -- the fence ----------------------------------------------------------------

OHB_GEOMETRIES = [(4000, 4), (20_000, 4), (999, 7)]


@pytest.mark.parametrize("pairs,parts", OHB_GEOMETRIES)
@pytest.mark.parametrize("workload", [GROUP_BY, SORT_BY], ids=lambda w: w.name)
def test_ohb_sample_traces_identical(workload, pairs, parts):
    got, want = batched_and_reference(
        lambda: workload.trace_sample(num_pairs=pairs, num_partitions=parts)
    )
    assert got.sample_params == want.sample_params
    assert_same_stages(got.stages, want.stages)
    assert got.total_records == want.total_records > 0


def test_ohb_build_rdd_results_identical():
    def run():
        sc = SparkContext(SparkConf({"spark.default.parallelism": "3"}))
        out = SORT_BY.build_rdd(sc, 3000, 3).collect()
        return out, sc.tracer.all_stages()

    (got, got_st), (want, want_st) = batched_and_reference(run)
    assert got == want
    assert_same_stages(got_st, want_st)


@pytest.mark.parametrize("pairs,parts", OHB_GEOMETRIES[:2])
def test_group_by_key_output_identical(pairs, parts):
    # Key order and per-key value order of the grouping fast path.
    def run():
        sc = SparkContext(SparkConf({"spark.default.parallelism": str(parts)}))
        return GROUP_BY.build_rdd(sc, pairs, parts).collect()

    got, want = batched_and_reference(run)
    assert got == want
    assert sum(map(len, (vs for _k, vs in got))) == pairs


@pytest.mark.parametrize("name", sorted(SAMPLE_PROGRAMS))
def test_hibench_sample_traces_identical(name):
    got, want = batched_and_reference(SPECS[name].trace_sample)
    assert_same_stages(got.stages, want.stages)


def _reduce_by_key_job():
    sc = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
    data = [(f"k{i % 13}", i) for i in range(3000)] + [(i % 7, i) for i in range(500)]
    out = sc.parallelize(data, 5).reduce_by_key(operator.add, 3).collect()
    return out, sc.tracer.all_stages()


def _group_by_key_job():
    # Distinct values, so per-key value order is visible (OHB's are not).
    sc = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
    data = [((i * 7919) % 31, i) for i in range(3000)]
    out = sc.parallelize(data, 5).group_by_key(3).collect()
    return out, sc.tracer.all_stages()


def _repartition_job():
    sc = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
    rows = sc.parallelize([(i, "x" * (i % 9)) for i in range(2500)], 3)
    out = rows.repartition(5).map_partitions(lambda it: iter([list(it)])).collect()
    return out, sc.tracer.all_stages()


@pytest.mark.parametrize("job", [_reduce_by_key_job, _group_by_key_job, _repartition_job],
                         ids=["reduce_by_key", "group_by_key", "repartition"])
def test_combine_and_repartition_traces_identical(job):
    (got, got_st), (want, want_st) = batched_and_reference(job)
    assert got == want
    assert_same_stages(got_st, want_st)
    assert any(st.shuffle_matrix is not None for st in got_st)


# -- record counting ----------------------------------------------------------


def _records_in(action):
    sc = SparkContext(SparkConf({"spark.default.parallelism": "3"}))
    data = sc.parallelize(list(range(100)), 3)
    value = action(data)
    return value, [st.records_in for st in sc.tracer.all_stages()]


def _take_three(data):
    # What take(3) ran: one job over partition 0, pulling three records.
    (part,) = data.ctx.run_job(
        data, lambda it: list(itertools.islice(it, 3)), partitions=[0], description="take"
    )
    return part


def _stop_halfway(data):
    def half(it):
        return [x for x, _ in zip(it, range(17))]

    return data.ctx.run_job(data, half, description="half")


@pytest.mark.parametrize("action", [
    _take_three,
    _stop_halfway,
    lambda d: d.count(),
    lambda d: d.map(lambda x: (x % 4, x)).group_by_key(2).count(),
], ids=["take", "stop_halfway", "count", "shuffle_count"])
def test_records_in_matches_the_generator_wrapper(action):
    (got, got_counts), (want, want_counts) = batched_and_reference(
        lambda: _records_in(action)
    )
    assert got == want
    assert got_counts == want_counts


def test_partial_consumer_counts_only_what_it_pulled():
    # zip pulls the record before the counter: take(3) on a 34-record
    # partition counts 3, not 4.
    _value, counts = _records_in(_take_three)
    assert counts == [[3]]
