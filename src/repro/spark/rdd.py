"""Resilient Distributed Datasets: the lineage graph and operator surface.

Faithful to Spark's architecture at the level the paper depends on:

* transformations build a DAG of RDDs connected by **narrow** dependencies
  (map/filter/...) or **wide** :class:`ShuffleDependency` (groupByKey,
  sortByKey, join, repartition, ...),
* wide dependencies are where shuffle traffic — the paper's bottleneck —
  is produced; the DAG scheduler cuts stages exactly there,
* actions submit jobs through the SparkContext.

Every operator actually computes (this is a working data engine, used by
the examples and the correctness tests); the performance simulation reuses
the same lineage with traced sizes.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.spark.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    sample_for_range_bounds,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext


class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """One-to-one (or few-to-one) partition dependency; no shuffle."""


class Aggregator:
    """Combiner functions for shuffle-side aggregation."""

    def __init__(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        grouping: bool = False,
    ) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners
        # grouping=True declares the combiner triple to be plain list
        # grouping ([v] / append / concat), letting the reduce side use a
        # direct dict-of-lists loop instead of two lambda calls per record.
        self.grouping = grouping


class ShuffleDependency(Dependency):
    """Wide dependency: the parent is re-partitioned by key across the net."""

    _shuffle_ids = itertools.count(0)

    def __init__(
        self,
        parent: "RDD",
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
        key_ordering: bool = False,
        ascending: bool = True,
    ) -> None:
        super().__init__(parent)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        self.key_ordering = key_ordering
        self.ascending = ascending
        self.shuffle_id = next(ShuffleDependency._shuffle_ids)


class RDD:
    """Base RDD. Subclasses implement :meth:`compute`."""

    _ids = itertools.count(0)

    def __init__(
        self,
        ctx: "SparkContext",
        num_partitions: int,
        deps: Sequence[Dependency] = (),
        partitioner: Partitioner | None = None,
        name: str | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError(f"RDD needs >= 1 partition, got {num_partitions}")
        self.ctx = ctx
        self.num_partitions = num_partitions
        self.deps = list(deps)
        self.partitioner = partitioner
        self.id = next(RDD._ids)
        self.name = name or type(self).__name__
        self.is_cached = False

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        raise NotImplementedError

    def iterator(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        """Compute (or fetch from cache) one partition.

        A cached partition is a tuple: once the collector has seen that
        its records are atomic it untracks it, and full collections stop
        re-walking the cache (DESIGN §10). It is built through a list:
        building it straight from the generator measured twice the
        young-generation collector time.
        """
        if self.is_cached:
            cached = task_ctx.get_cached(self.id, split)
            if cached is not None:
                return iter(cached)
            data = tuple(list(self.compute(split, task_ctx)))
            task_ctx.put_cached(self.id, split, data)
            return iter(data)
        return self.compute(split, task_ctx)

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------
    def map_partitions(
        self, fn: Callable[[Iterator[Any]], Iterator[Any]], name: str = "mapPartitions"
    ) -> "RDD":
        return MapPartitionsRDD(self, fn, name=name)

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map_partitions(lambda it: (fn(x) for x in it), name="map")

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return self.map_partitions(
            lambda it: (y for x in it for y in fn(x)), name="flatMap"
        )

    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        out = self.map_partitions(
            lambda it: ((k, fn(v)) for k, v in it), name="mapValues"
        )
        out.partitioner = self.partitioner  # keys unchanged
        return out

    def cache(self) -> "RDD":
        self.is_cached = True
        return self

    # ------------------------------------------------------------------
    # wide (shuffling) transformations
    # ------------------------------------------------------------------
    def _default_partitions(self, num_partitions: int | None) -> int:
        return num_partitions or self.ctx.default_parallelism

    def combine_by_key(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        map_side_combine: bool = True,
        grouping: bool = False,
    ) -> "RDD":
        agg = Aggregator(
            create_combiner, merge_value, merge_combiners, grouping=grouping
        )
        part = HashPartitioner(self._default_partitions(num_partitions))
        return ShuffledRDD(self, part, aggregator=agg, map_side_combine=map_side_combine)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        # Spark's groupByKey never combines map-side: every value crosses
        # the wire — which is exactly why OHB GroupByTest stresses shuffle.
        return self.combine_by_key(
            lambda v: [v],
            lambda acc, v: (acc.append(v), acc)[1],
            lambda a, b: a + b,
            num_partitions,
            map_side_combine=False,
            grouping=True,
        )

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: int | None = None
    ) -> "RDD":
        return self.combine_by_key(lambda v: v, fn, fn, num_partitions)

    def sort_by_key(
        self, ascending: bool = True, num_partitions: int | None = None
    ) -> "RDD":
        n = self._default_partitions(num_partitions)
        # Build range bounds by sampling — this runs a separate job, which
        # is why the paper's SortByTest breakdown labels the sort "Job2".
        sample = self.ctx.run_job(
            self,
            lambda it: sample_for_range_bounds(map(_key, it), max(n // self.num_partitions, 1) * 4),
            description="sortByKey sampling",
        )
        keys = [k for part in sample for k in part]
        bounds = RangePartitioner.bounds_from_sample(keys, n)
        part = RangePartitioner(bounds, ascending=ascending)
        return ShuffledRDD(
            self, part, key_ordering=True, ascending=ascending, name="sortByKey"
        )

    def repartition(self, num_partitions: int) -> "RDD":
        # Spark rounds-robins records to destinations, then drops the key.
        counter = itertools.count()

        def add_key(it):
            return ((next(counter) % num_partitions, x) for x in it)

        keyed = self.map_partitions(add_key, name="repartition-keying")
        shuffled = ShuffledRDD(keyed, HashPartitioner(num_partitions), name="repartition")
        return shuffled.map(lambda kv: kv[1])

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        part = HashPartitioner(self._default_partitions(num_partitions))
        return CoGroupedRDD(self.ctx, [self, other], part)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        def emit(kv):
            k, (left, right) = kv
            return [(k, (l, r)) for l in left for r in right]

        return self.cogroup(other, num_partitions).flat_map(emit)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self) -> list[Any]:
        parts = self.ctx.run_job(self, list, description=f"collect {self.name}")
        return [x for part in parts for x in part]

    def count(self) -> int:
        parts = self.ctx.run_job(self, _count_iter, description=f"count {self.name}")
        return sum(parts)


_key = itemgetter(0)


def _count_iter(it) -> int:
    # Count by zipping against a counter: zip pulls the record first, so
    # the counter advances once per record, and no frame runs per record.
    counter = itertools.count()
    deque(zip(it, counter), maxlen=0)
    return next(counter)


# ---------------------------------------------------------------------------
# concrete RDDs
# ---------------------------------------------------------------------------

class ParallelCollectionRDD(RDD):
    """An in-memory collection sliced into partitions (sc.parallelize)."""

    def __init__(self, ctx: "SparkContext", data: Sequence[Any], num_partitions: int) -> None:
        super().__init__(ctx, num_partitions, deps=(), name="parallelize")
        n = len(data)
        self._slices = [
            list(data[(n * i) // num_partitions : (n * (i + 1)) // num_partitions])
            for i in range(num_partitions)
        ]

    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        return iter(self._slices[split])


class GeneratedRDD(RDD):
    """Partitions produced by a generator function (workload data gen)."""

    def __init__(
        self,
        ctx: "SparkContext",
        num_partitions: int,
        gen_fn: Callable[[int], Iterable[Any]],
        name: str = "generated",
    ) -> None:
        super().__init__(ctx, num_partitions, deps=(), name=name)
        self._gen_fn = gen_fn

    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        return iter(self._gen_fn(split))


class MapPartitionsRDD(RDD):
    """Applies a per-partition function; the universal narrow operator."""

    def __init__(
        self, parent: RDD, fn: Callable[[Iterator[Any]], Iterator[Any]], name: str
    ) -> None:
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            deps=[NarrowDependency(parent)],
            name=name,
        )
        self._fn = fn

    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        parent = self.deps[0].parent
        return iter(self._fn(parent.iterator(split, task_ctx)))


class ShuffledRDD(RDD):
    """Output side of a shuffle: reads combined key/value pairs."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
        key_ordering: bool = False,
        ascending: bool = True,
        name: str = "shuffled",
    ) -> None:
        dep = ShuffleDependency(
            parent,
            partitioner,
            aggregator=aggregator,
            map_side_combine=map_side_combine,
            key_ordering=key_ordering,
            ascending=ascending,
        )
        super().__init__(
            parent.ctx,
            partitioner.num_partitions,
            deps=[dep],
            partitioner=partitioner,
            name=name,
        )

    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        dep: ShuffleDependency = self.deps[0]  # type: ignore[assignment]
        records = task_ctx.shuffle_fetch(dep, split)
        agg = dep.aggregator
        if agg is not None:
            combined: dict[Any, Any] = {}
            if dep.map_side_combine:
                # Values arriving are already combiners.
                merge_combiners = agg.merge_combiners
                for k, c in records:
                    if k in combined:
                        combined[k] = merge_combiners(combined[k], c)
                    else:
                        combined[k] = c
            elif agg.grouping:
                # groupByKey fast path: the combiners are plain lists, so
                # group directly (C-level dict/list ops) instead of two
                # Python lambda calls per record. Key insertion order and
                # per-key value order match the generic loop exactly.
                get = combined.get
                for k, v in records:
                    acc = get(k)
                    if acc is None:
                        combined[k] = [v]
                    else:
                        acc.append(v)
            else:
                merge_value = agg.merge_value
                create_combiner = agg.create_combiner
                for k, v in records:
                    if k in combined:
                        combined[k] = merge_value(combined[k], v)
                    else:
                        combined[k] = create_combiner(v)
            records = iter(combined.items())
        if dep.key_ordering:
            records = iter(
                sorted(records, key=_key, reverse=not dep.ascending)
            )
        return records


class CoGroupedRDD(RDD):
    """Groups values from several parents by key: (k, ([vs0], [vs1], ...))."""

    def __init__(
        self, ctx: "SparkContext", parents: Sequence[RDD], partitioner: Partitioner
    ) -> None:
        deps = [ShuffleDependency(p, partitioner) for p in parents]
        super().__init__(
            ctx,
            partitioner.num_partitions,
            deps=deps,
            partitioner=partitioner,
            name="cogroup",
        )

    def compute(self, split: int, task_ctx: "TaskContext") -> Iterator[Any]:
        n = len(self.deps)
        groups: dict[Any, tuple[list[Any], ...]] = {}
        for idx, dep in enumerate(self.deps):
            for k, v in task_ctx.shuffle_fetch(dep, split):
                if k not in groups:
                    groups[k] = tuple([] for _ in range(n))
                groups[k][idx].append(v)
        return iter(groups.items())


class TaskContext:
    """Execution context a backend provides to running tasks."""

    def shuffle_fetch(self, dep: ShuffleDependency, reduce_id: int) -> Iterator[Any]:
        """Iterate the shuffle records destined for ``reduce_id``."""
        raise NotImplementedError

    def get_cached(self, rdd_id: int, split: int) -> tuple[Any, ...] | None:
        return None

    def put_cached(self, rdd_id: int, split: int, data: tuple[Any, ...]) -> None:
        pass
