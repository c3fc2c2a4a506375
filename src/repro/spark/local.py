"""Local execution backend: actually runs jobs, in process.

This is the engine behind the examples and correctness tests, and the
*trace generator* for the performance simulation: every stage execution is
measured (records, serialized bytes, shuffle matrices) into the context's
:class:`~repro.spark.tracing.TraceRecorder`.

Execution is deterministic (tasks run in partition order); the shuffle
data plane uses an in-memory map-output registry that mirrors Spark's
SortShuffleManager behaviour: map tasks partition (and optionally combine)
their output per reduce partition; reduce tasks concatenate the buckets
destined to them.
"""

from __future__ import annotations

from itertools import chain, count
from operator import itemgetter
from typing import Any, Iterator

import numpy as np

from repro.spark.dag import Job, Stage
from repro.spark.rdd import ShuffleDependency
from repro.spark.tracing import StageTrace
from repro.util.serialization import estimate_batch, sizeof


_key = itemgetter(0)


def _bucket_by(
    records: list[Any], rids: np.ndarray, n_reds: int
) -> list[tuple[Any, ...]]:
    """Split ``records`` into ``n_reds`` tuples by reduce id, keeping
    arrival order within each tuple (a stable sort of the ids).

    Tuples, not lists: a tuple of atomic records is untracked by the
    cyclic collector after its first look, so full collections stop
    re-walking every bucketed record (DESIGN §10, §12)."""
    order = np.argsort(rids, kind="stable")
    ordered = np.fromiter(records, dtype=object, count=len(records))[order]
    ends = np.cumsum(np.bincount(rids, minlength=n_reds)).tolist()
    starts = [0, *ends[:-1]]
    return [tuple(ordered[a:b].tolist()) for a, b in zip(starts, ends)]


class MapOutputRegistry:
    """Where map-task shuffle output lives between stages (the "RAM disk")."""

    def __init__(self) -> None:
        # shuffle_id -> list over map partitions -> {reduce_id: (records, nbytes)}
        self._outputs: dict[int, list[dict[int, tuple[tuple[Any, ...], int]]]] = {}

    def is_computed(self, shuffle_id: int) -> bool:
        return shuffle_id in self._outputs

    def init_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        self._outputs[shuffle_id] = [dict() for _ in range(num_maps)]

    def put(
        self,
        shuffle_id: int,
        map_id: int,
        reduce_id: int,
        records: tuple[Any, ...],
        nbytes: int,
    ) -> None:
        self._outputs[shuffle_id][map_id][reduce_id] = (records, nbytes)

    def fetch(self, shuffle_id: int, reduce_id: int) -> Iterator[Any]:
        """The records bound for ``reduce_id``: map order, then arrival order."""
        maps = self._outputs.get(shuffle_id)
        if maps is None:
            raise KeyError(f"shuffle {shuffle_id} has not been computed")
        return chain.from_iterable(
            m[reduce_id][0] for m in maps if reduce_id in m
        )

    def block_sizes(self, shuffle_id: int) -> np.ndarray:
        """Matrix [map_id, reduce_id] of serialized bucket sizes."""
        maps = self._outputs[shuffle_id]
        n_red = 1 + max(
            (rid for m in maps for rid in m), default=-1
        )
        out = np.zeros((len(maps), max(n_red, 1)), dtype=np.int64)
        for mid, m in enumerate(maps):
            for rid, (_records, nbytes) in m.items():
                out[mid, rid] = nbytes
        return out


class LocalTaskContext:
    """The execution context a running task reads: the local backend's
    shuffle outputs and RDD cache."""

    def __init__(self, backend: "LocalBackend") -> None:
        self.backend = backend
        self.shuffle_bytes_read = 0

    def shuffle_fetch(self, dep: ShuffleDependency, reduce_id: int) -> Iterator[Any]:
        return self.backend.map_outputs.fetch(dep.shuffle_id, reduce_id)

    def get_cached(self, rdd_id: int, split: int) -> tuple[Any, ...] | None:
        return self.backend.cache.get((rdd_id, split))

    def put_cached(self, rdd_id: int, split: int, data: tuple[Any, ...]) -> None:
        self.backend.cache[(rdd_id, split)] = data


class LocalBackend:
    """Serial in-process executor with trace capture."""

    def __init__(self) -> None:
        self.map_outputs = MapOutputRegistry()
        self.cache: dict[tuple[int, int], tuple[Any, ...]] = {}

    # -- job execution ---------------------------------------------------------
    def run_job(self, job: Job, recorder=None) -> list[Any]:
        job_trace = recorder.begin_job(job.job_id, job.description) if recorder else None
        results: list[Any] = []
        for stage in job.stages:
            if stage.is_shuffle_map:
                dep = stage.shuffle_dep
                assert dep is not None
                if self.map_outputs.is_computed(dep.shuffle_id):
                    continue  # shuffle reuse across jobs
                trace = self._run_shuffle_map_stage(job, stage)
            else:
                results, trace = self._run_result_stage(job, stage)
            if job_trace is not None:
                job_trace.stages.append(trace)
        return results

    # -- stage runners ------------------------------------------------------------
    def _run_shuffle_map_stage(self, job: Job, stage: Stage) -> StageTrace:
        dep = stage.shuffle_dep
        assert dep is not None
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
            # Batched data plane: materialize the partition (shuffle map
            # stages always consume their input fully), then partition
            # all keys in one vectorized call. Record order within each
            # bucket is the arrival order, exactly as a per-record loop
            # would produce it.
            records = list(stage.rdd.iterator(map_id, task_ctx))
            records_in = len(records)
            rids = dep.partitioner.partition_many(list(map(_key, records)))
            if dep.map_side_combine and agg is not None:
                buckets: list[Any] = [None] * n_reds
                merge_value = agg.merge_value
                create_combiner = agg.create_combiner
                for (k, v), rid in zip(records, rids.tolist()):
                    bucket = buckets[rid]
                    if bucket is None:
                        bucket = buckets[rid] = {}
                    if k in bucket:
                        bucket[k] = merge_value(bucket[k], v)
                    else:
                        bucket[k] = create_combiner(v)
                bucket_tuples = [tuple(b.items()) if b else () for b in buckets]
            else:
                bucket_tuples = _bucket_by(records, rids, n_reds)

            records_out = 0
            bytes_out = 0
            for rid, bucket in enumerate(bucket_tuples):
                if not bucket:
                    continue
                nbytes = estimate_batch(bucket)
                self.map_outputs.put(dep.shuffle_id, map_id, rid, bucket, nbytes)
                trace.shuffle_matrix[map_id, rid] = nbytes
                trace.shuffle_records[map_id, rid] = len(bucket)
                records_out += len(bucket)
                bytes_out += nbytes
            trace.records_in.append(records_in)
            trace.records_out.append(records_out)
            trace.bytes_out.append(bytes_out)
        return trace

    def _run_result_stage(self, job: Job, stage: Stage) -> tuple[list[Any], StageTrace]:
        trace = StageTrace(
            stage_id=stage.id,
            label=job.label_of(stage),
            kind=stage.kind(),
            num_tasks=len(job.partitions),
        )
        # If the result stage reads shuffles, record what each task fetched.
        shuffle_deps = [
            dep for dep in stage.rdd.deps if isinstance(dep, ShuffleDependency)
        ]
        if shuffle_deps:
            n_maps = max(d.parent.num_partitions for d in shuffle_deps)
            trace.fetch_matrix = np.zeros(
                (stage.rdd.num_partitions, n_maps), dtype=np.int64
            )
            for dep in shuffle_deps:
                sizes = self.map_outputs.block_sizes(dep.shuffle_id)
                n_red = min(sizes.shape[1], stage.rdd.num_partitions)
                trace.fetch_matrix[:n_red, : sizes.shape[0]] += sizes[:, :n_red].T

        results = []
        for pid in job.partitions:
            task_ctx = LocalTaskContext(self)
            # Count what the job consumes: zip pulls the record before the
            # counter, so a consumer that stops early (take, first) counts
            # exactly the records it pulled, with no frame per record.
            consumed = count()
            value = job.func(
                map(_key, zip(stage.rdd.iterator(pid, task_ctx), consumed))
            )
            results.append(value)
            trace.records_in.append(next(consumed))
            trace.records_out.append(1)
            trace.bytes_out.append(sizeof(value))
        return results, trace
