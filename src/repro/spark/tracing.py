"""Execution traces: the bridge from real runs to the performance model.

The local backend records, for every stage it executes, the record counts
and serialized byte volumes flowing through it — in particular the shuffle
traffic matrix (bytes from map partition *i* to reduce partition *j*).
The simulation harness scales these traces to the paper's nominal data
sizes and replays them on the simulated cluster (trace-driven simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class StageTrace:
    """What one stage did, measured at sample scale."""

    stage_id: int
    label: str  # e.g. "Job1-ShuffleMapStage"
    kind: str  # "ShuffleMapStage" | "ResultStage"
    num_tasks: int
    records_in: list[int] = field(default_factory=list)  # per task
    records_out: list[int] = field(default_factory=list)  # per task
    bytes_out: list[int] = field(default_factory=list)  # per task
    shuffle_id: int | None = None
    # ShuffleMapStage: matrix[map_id][reduce_id] = serialized bytes written.
    shuffle_matrix: np.ndarray | None = None
    shuffle_records: np.ndarray | None = None
    # ResultStage: bytes fetched per (reduce_id, source map_id).
    fetch_matrix: np.ndarray | None = None

    @property
    def total_shuffle_bytes(self) -> int:
        if self.shuffle_matrix is None:
            return 0
        return int(self.shuffle_matrix.sum())

    @property
    def total_records_in(self) -> int:
        return sum(self.records_in)


@dataclass
class JobTrace:
    """All stages of one job, in execution order."""

    job_id: int
    description: str
    stages: list[StageTrace] = field(default_factory=list)


@dataclass(frozen=True)
class SampleTrace:
    """Frozen, picklable result of one sample-scale execution.

    This is the artifact the trace memo holds: everything
    ``build_profile`` consumes from a sample run (stage structure, shuffle
    matrices, record/byte counts), decoupled from the live SparkContext
    that produced it. ``sample_params`` records the exact parameters the
    sample ran with, so cached artifacts are self-describing.
    """

    workload: str
    sample_params: tuple[tuple[str, Any], ...]
    stages: tuple[StageTrace, ...]
    schema: str = "sample-trace/1"

    @classmethod
    def from_recorder(
        cls, recorder: "TraceRecorder", workload: str, sample_params: dict[str, Any]
    ) -> "SampleTrace":
        return cls(
            workload=workload,
            sample_params=tuple(sorted(sample_params.items())),
            stages=tuple(recorder.all_stages()),
        )

    def find_stage(self, label_suffix: str) -> StageTrace:
        """First stage whose label ends with ``label_suffix``."""
        for st in self.stages:
            if st.label.endswith(label_suffix):
                return st
        raise KeyError(f"no stage label ending in {label_suffix!r}")

    @property
    def total_records(self) -> int:
        return sum(st.total_records_in for st in self.stages)


class TraceRecorder:
    """Accumulates job traces during local execution."""

    def __init__(self) -> None:
        self.jobs: list[JobTrace] = []
        self.enabled = True

    def begin_job(self, job_id: int, description: str) -> JobTrace:
        trace = JobTrace(job_id=job_id, description=description)
        self.jobs.append(trace)
        return trace

    def all_stages(self) -> list[StageTrace]:
        return [st for job in self.jobs for st in job.stages]
