"""DAG scheduler: cuts the RDD lineage into stages at shuffle boundaries.

Narrow dependencies are pipelined inside one stage; every
:class:`~repro.spark.rdd.ShuffleDependency` introduces a parent
``ShuffleMapStage``. Stage naming mirrors the Spark UI labels the paper's
breakdown figures use ("Job1-ShuffleMapStage", "Job1-ResultStage", ...).
Shuffle-map stages are cached per shuffle id, so a shuffle computed by an
earlier job is not recomputed (Spark's shuffle-reuse behaviour).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.spark.rdd import RDD, NarrowDependency, ShuffleDependency


class Stage:
    """A pipelined set of tasks, one per partition of :attr:`rdd`."""

    _ids = itertools.count(0)

    def __init__(self, rdd: RDD, shuffle_dep: ShuffleDependency | None) -> None:
        self.id = next(Stage._ids)
        self.rdd = rdd
        self.shuffle_dep = shuffle_dep  # None => result stage
        self.parents: list[Stage] = []

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions

    def kind(self) -> str:
        return "ShuffleMapStage" if self.is_shuffle_map else "ResultStage"


@dataclass
class Job:
    """One action: a result stage plus its (transitive) parent stages."""

    job_id: int
    final_rdd: RDD
    func: Callable
    partitions: Sequence[int]
    result_stage: Stage
    stages: list[Stage] = field(default_factory=list)  # topological order
    description: str = ""

    def label_of(self, stage: Stage) -> str:
        """The Spark-UI-style label used in the paper's figures."""
        return f"Job{self.job_id}-{stage.kind()}"


class DAGScheduler:
    """Builds jobs from actions. Execution is delegated to a backend."""

    def __init__(self) -> None:
        self._shuffle_stages: dict[int, Stage] = {}
        self._job_ids = itertools.count(0)

    # -- stage graph construction ---------------------------------------------
    def _shuffle_map_stage(self, dep: ShuffleDependency) -> Stage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = Stage(dep.parent, dep)
            stage.parents = self._parent_stages(dep.parent)
            self._shuffle_stages[dep.shuffle_id] = stage
        return stage

    def _parent_stages(self, rdd: RDD) -> list[Stage]:
        """Shuffle-map stages directly feeding the stage containing ``rdd``."""
        parents: list[Stage] = []
        seen: set[int] = set()
        stack = [rdd]
        visited: set[int] = set()
        while stack:
            r = stack.pop()
            if r.id in visited:
                continue
            visited.add(r.id)
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    stage = self._shuffle_map_stage(dep)
                    if stage.id not in seen:
                        seen.add(stage.id)
                        parents.append(stage)
                else:
                    stack.append(dep.parent)
        return parents

    def build_job(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int] | None = None,
        description: str = "",
    ) -> Job:
        if partitions is None:
            partitions = range(rdd.num_partitions)
        partitions = list(partitions)
        for pid in partitions:
            if not 0 <= pid < rdd.num_partitions:
                raise ValueError(
                    f"partition {pid} out of range for {rdd.num_partitions}"
                )
        result_stage = Stage(rdd, None)
        result_stage.parents = self._parent_stages(rdd)
        job = Job(
            job_id=next(self._job_ids),
            final_rdd=rdd,
            func=func,
            partitions=partitions,
            result_stage=result_stage,
            description=description,
        )
        job.stages = self._topo_sort(result_stage)
        return job

    @staticmethod
    def _topo_sort(result_stage: Stage) -> list[Stage]:
        order: list[Stage] = []
        seen: set[int] = set()

        def visit(stage: Stage) -> None:
            if stage.id in seen:
                return
            seen.add(stage.id)
            for parent in stage.parents:
                visit(parent)
            order.append(stage)

        visit(result_stage)
        return order
