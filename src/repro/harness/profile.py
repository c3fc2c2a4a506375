"""Workload profiles: the scaled, executor-level view of a traced job.

A :class:`WorkloadProfile` is what the simulated cluster executes. It is
built from a *measured* local-backend trace (sample scale), scaled to the
paper's nominal data size and the target cluster geometry (executors ×
cores). Three stage shapes cover the paper's workloads:

* :class:`ComputeStage` — data generation / pure computation,
* :class:`ShuffleWriteStage` — map tasks computing then writing partitioned
  output to the node-local RAM disk,
* :class:`ShuffleReadStage` — reduce tasks fetching blocks from every
  executor over the transport under test, then combining.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.spark.tracing import StageTrace


@dataclass
class ComputeStage:
    """n_tasks independent tasks of pure compute."""

    label: str
    seconds_per_task: np.ndarray  # shape (n_tasks,)

    @property
    def n_tasks(self) -> int:
        return len(self.seconds_per_task)


@dataclass
class ShuffleWriteStage:
    """Map side: compute + write partitioned output locally."""

    label: str
    seconds_per_task: np.ndarray  # compute portion, shape (n_tasks,)
    write_bytes_per_task: np.ndarray  # shape (n_tasks,)

    @property
    def n_tasks(self) -> int:
        return len(self.seconds_per_task)


@dataclass
class ShuffleReadStage:
    """Reduce side: fetch from all executors, then combine.

    ``fetch_bytes[t, e]`` — bytes task ``t`` pulls from executor ``e``
    (column ``e == own executor`` is a local RAM-disk read).
    ``blocks[t, e]`` — how many shuffle blocks that traffic represents
    (drives per-block message overheads).
    """

    label: str
    fetch_bytes: np.ndarray  # shape (n_tasks, n_executors)
    blocks: np.ndarray  # shape (n_tasks, n_executors), int
    combine_seconds_per_task: np.ndarray  # shape (n_tasks,)

    @property
    def n_tasks(self) -> int:
        return self.fetch_bytes.shape[0]


Stage = ComputeStage | ShuffleWriteStage | ShuffleReadStage


@dataclass
class WorkloadProfile:
    """A full job, scaled and ready for simulation."""

    name: str
    nominal_bytes: int
    n_executors: int
    cores_per_executor: int
    stages: list[Stage] = field(default_factory=list)


def _spread(total: float, n: int, cv: float, seed: int) -> np.ndarray:
    """Split ``total`` into ``n`` parts with coefficient-of-variation ``cv``.

    Deterministic (seeded); clipped at a small positive floor so no task is
    empty. This reproduces the mild task-size imbalance real hash
    partitioning shows without carrying full sample matrices around.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    if cv <= 0:
        return np.full(n, total / n)
    parts = rng.normal(1.0, cv, size=n)
    parts = np.clip(parts, 0.2, None)
    parts = parts / parts.sum() * total
    return parts


def spread_cpu(
    total_cpu_seconds: float, n_tasks: int, total_cores: int, cv: float, seed: int
) -> np.ndarray:
    """Per-task compute seconds preserving *stage time* under task folding.

    Stage time on a full cluster is ``total_cpu / total_cores`` (perfect
    waves). When fidelity folds many logical tasks into fewer simulated
    tasks, each simulated task must carry one core's worth of work — not
    ``total / n_tasks`` — or compute stages would dilate.
    """
    per_task = total_cpu_seconds / max(total_cores, 1)
    return _spread(per_task * n_tasks, n_tasks, cv, seed)


def measured_cv(trace: StageTrace) -> float:
    """Per-task size imbalance measured from the sample trace."""
    if trace.shuffle_matrix is not None:
        per_reduce = trace.shuffle_matrix.sum(axis=0).astype(float)
        if per_reduce.sum() > 0 and per_reduce.mean() > 0:
            return float(per_reduce.std() / per_reduce.mean())
    if trace.bytes_out:
        arr = np.asarray(trace.bytes_out, dtype=float)
        if arr.mean() > 0:
            return float(arr.std() / arr.mean())
    return 0.0


def scaled_read_matrices(
    total_bytes: float,
    n_tasks: int,
    n_executors: int,
    n_map_tasks: int,
    cv: float,
    seed: int = 23,
) -> tuple[np.ndarray, np.ndarray]:
    """Build (fetch_bytes, blocks) for a scaled shuffle read.

    Traffic is spread uniformly across source executors (hash partitioning
    over random keys — the OHB case), with per-task jitter of ``cv``.
    Every (reduce task, map task) pair is one block, aggregated here per
    (reduce task, source executor).
    """
    per_task = _spread(total_bytes, n_tasks, cv, seed)
    fetch = np.outer(per_task, np.full(n_executors, 1.0 / n_executors))
    maps_per_exec = max(1, n_map_tasks // n_executors)
    blocks = np.full((n_tasks, n_executors), maps_per_exec, dtype=np.int64)
    return fetch, blocks
