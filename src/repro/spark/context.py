"""SparkContext: the user's entry point."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.spark.conf import SparkConf
from repro.spark.dag import DAGScheduler, Job
from repro.spark.local import LocalBackend
from repro.spark.rdd import GeneratedRDD, ParallelCollectionRDD, RDD
from repro.spark.tracing import TraceRecorder


class SparkContext:
    """Creates RDDs and runs jobs on a backend (local by default).

    >>> sc = SparkContext()
    >>> sc.parallelize(range(10), 2).map(lambda x: x * x).count()
    10
    """

    def __init__(self, conf: SparkConf | None = None, backend=None) -> None:
        self.conf = conf or SparkConf()
        self.backend = backend or LocalBackend()
        self.dag_scheduler = DAGScheduler()
        self.tracer = TraceRecorder()
        self._stopped = False

    # -- RDD creation ------------------------------------------------------
    @property
    def default_parallelism(self) -> int:
        return self.conf.default_parallelism

    def parallelize(self, data: Iterable[Any], num_partitions: int | None = None) -> RDD:
        data = list(data)
        n = num_partitions or self.default_parallelism
        return ParallelCollectionRDD(self, data, max(1, min(n, max(len(data), 1))))

    def range(self, n: int, num_partitions: int | None = None) -> RDD:
        parts = num_partitions or self.default_parallelism

        def gen(split: int):
            lo = (n * split) // parts
            hi = (n * (split + 1)) // parts
            return range(lo, hi)

        return GeneratedRDD(self, parts, gen, name=f"range({n})")

    def generated(
        self,
        num_partitions: int,
        gen_fn: Callable[[int], Iterable[Any]],
        name: str = "generated",
    ) -> RDD:
        """Partitioned data from a generator function (workload data gen)."""
        return GeneratedRDD(self, num_partitions, gen_fn, name=name)

    # -- job execution ---------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int] | None = None,
        description: str = "",
    ) -> list[Any]:
        if self._stopped:
            raise RuntimeError("SparkContext has been stopped")
        job = self.dag_scheduler.build_job(rdd, func, partitions, description)
        recorder = self.tracer if self.tracer.enabled else None
        return self.backend.run_job(job, recorder=recorder)

    def stop(self) -> None:
        self._stopped = True

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
