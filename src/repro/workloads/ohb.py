"""OSU HiBD Benchmarks (OHB) RDD workloads: GroupByTest and SortByTest.

Each workload exists in two coupled forms:

* :meth:`run_sample` — a *real* RDD program executed on the local backend
  at laptop scale, producing correctness results and an execution trace
  (stage structure, shuffle matrices, record counts);
* :meth:`build_profile` — the trace scaled to the paper's nominal data
  size and cluster geometry, ready for the simulated cluster.

OHB's GroupByTest creates (key, value) pairs and calls ``groupByKey`` —
every byte crosses the shuffle (no map-side combine). SortByTest calls
``sortByKey``, which first runs a range-sampling job, so its sort stages
are labeled Job2 (exactly as in the paper's Fig. 10b breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.harness.profile import (
    ComputeStage,
    ShuffleReadStage,
    ShuffleWriteStage,
    WorkloadProfile,
    _spread,
    measured_cv,
    scaled_read_matrices,
    spread_cpu,
)
from repro.harness.systems import SystemConfig
from repro.harness.tracecache import get_or_trace
from repro.spark import SparkConf, SparkContext
from repro.spark.tracing import SampleTrace
from repro.util.rng import randint_stream
from repro.workloads.calibration import COSTS, WorkloadCosts

SAMPLE_DEFAULTS = {"num_pairs": 4000, "num_partitions": 4, "value_bytes": 64}


def _pair_gen(seed: int, num_pairs: int, num_partitions: int, value_bytes: int):
    """OHB datagen: split ``s`` yields ``num_pairs // num_partitions`` pairs
    ``(random.Random(seed + s).randint(0, num_pairs), bytes(value_bytes))``."""
    per_part = num_pairs // num_partitions

    def gen(split: int):
        value = bytes(value_bytes)  # constant payload: build once
        return zip(randint_stream(seed + split, num_pairs, per_part), repeat(value))

    return gen


@dataclass
class OhbWorkload:
    """One OHB RDD benchmark."""

    name: str  # "GroupByTest" | "SortByTest"

    @property
    def costs(self) -> WorkloadCosts:
        return COSTS[self.name]

    # -- real execution (sample scale) ---------------------------------------
    def build_rdd(self, sc: SparkContext, num_pairs: int, num_partitions: int,
                  value_bytes: int = 64, seed: int = 42):
        """The OHB benchmark body as a real RDD program."""

        gen = _pair_gen(seed, num_pairs, num_partitions, value_bytes)
        pairs = sc.generated(num_partitions, gen, name=f"{self.name}-datagen")
        if self.name == "GroupByTest":
            return pairs.group_by_key(num_partitions)
        if self.name == "SortByTest":
            return pairs.sort_by_key(num_partitions=num_partitions)
        raise ValueError(f"unknown OHB workload {self.name}")

    def run_sample(
        self, num_pairs: int = 4000, num_partitions: int = 4, value_bytes: int = 64
    ) -> SparkContext:
        """Execute at sample scale; returns the context (traces inside).

        Mirrors OHB's two-job structure: Job0 materializes (counts) the
        generated data, the later job performs the wide operation.
        """
        sc = SparkContext(SparkConf({"spark.default.parallelism": str(num_partitions)}))
        gen = _pair_gen(1234, num_pairs, num_partitions, value_bytes)
        pairs = sc.generated(num_partitions, gen, name=f"{self.name}-datagen").cache()
        assert pairs.count() == (num_pairs // num_partitions) * num_partitions  # Job0
        if self.name == "GroupByTest":
            result = pairs.group_by_key(num_partitions)
        else:
            result = pairs.sort_by_key(num_partitions=num_partitions)
        result.count()  # the shuffle job
        return sc

    def trace_sample(self, **params) -> SampleTrace:
        """Execute the sample run and freeze its traces (no caching)."""
        merged = {**SAMPLE_DEFAULTS, **params}
        sc = self.run_sample(**merged)
        return SampleTrace.from_recorder(sc.tracer, self.name, merged)

    def sample_trace(self, **params) -> SampleTrace:
        """The frozen sample trace, via the per-process trace memo.

        The memo key covers the workload name, the sample parameters and
        the workload's cost constants — nothing about
        transport/system/scale, because the trace depends on none of
        those.
        """
        merged = {**SAMPLE_DEFAULTS, **params}
        return get_or_trace(
            self.name,
            merged,
            lambda: self.trace_sample(**merged),
            cost_constants=self.costs,
        )

    # -- scaled profile ------------------------------------------------------------
    def build_profile(
        self,
        system: SystemConfig,
        n_workers: int,
        nominal_bytes: int,
        cores_per_executor: int | None = None,
        tasks_per_core: float = 1.0,
        fidelity: float = 1.0,
    ) -> WorkloadProfile:
        """Scale the sample trace to the paper's geometry.

        ``fidelity`` < 1 reduces the simulated task count (keeping total
        bytes/records constant) to trade event-level detail for runtime;
        stage *times* stay calibrated because per-task work scales up
        accordingly.
        """
        costs = self.costs.scaled_to_clock(system.clock_ghz)
        cores = cores_per_executor or system.threads_per_node
        total_cores = n_workers * cores
        n_tasks = max(n_workers, int(total_cores * tasks_per_core * fidelity))

        trace = self.sample_trace()
        if self.name == "GroupByTest":
            map_label, read_label = "Job1-ShuffleMapStage", "Job1-ResultStage"
        else:
            map_label, read_label = "Job2-ShuffleMapStage", "Job2-ResultStage"
        map_trace = trace.find_stage(map_label)
        cv = measured_cv(map_trace)

        total_records = nominal_bytes / costs.record_bytes

        gen_seconds = spread_cpu(
            total_records * costs.gen_s, n_tasks, total_cores, cv / 2, seed=7
        )
        map_seconds = spread_cpu(
            total_records * costs.map_s, n_tasks, total_cores, cv / 2, seed=11
        )
        write_bytes = _spread(float(nominal_bytes), n_tasks, cv / 2, seed=13)

        fetch, blocks = scaled_read_matrices(
            total_bytes=float(nominal_bytes),
            n_tasks=n_tasks,
            n_executors=n_workers,
            n_map_tasks=n_tasks,
            cv=cv,
        )
        combine_seconds = spread_cpu(
            total_records * costs.combine_s, n_tasks, total_cores, cv / 2, seed=19
        )

        stages: list = [
            ComputeStage(label="Job0-ResultStage", seconds_per_task=gen_seconds),
        ]
        if self.name == "SortByTest":
            # The range-partitioner sampling job (why the sort is "Job2").
            sample_seconds = spread_cpu(
                total_records * 0.05 * costs.combine_s, n_tasks, total_cores, cv / 2, seed=17
            )
            stages.append(
                ComputeStage(label="Job1-ResultStage", seconds_per_task=sample_seconds)
            )
        stages.append(
            ShuffleWriteStage(
                label=map_label,
                seconds_per_task=map_seconds,
                write_bytes_per_task=write_bytes,
            )
        )
        stages.append(
            ShuffleReadStage(
                label=read_label,
                fetch_bytes=fetch,
                blocks=blocks,
                combine_seconds_per_task=combine_seconds,
            )
        )
        return WorkloadProfile(
            name=self.name,
            nominal_bytes=nominal_bytes,
            n_executors=n_workers,
            cores_per_executor=cores,
            stages=stages,
        )


GROUP_BY = OhbWorkload("GroupByTest")
SORT_BY = OhbWorkload("SortByTest")
