"""Seeded workload generator: continuous job arrivals for the job server.

The paper (and all five reproduced figures) benchmark one application at
a time; production Spark clusters serve a *stream* of concurrent
applications, where inter-job scheduling and contention dominate observed
latency. This module produces that stream: a Poisson (exponential
inter-arrival) or trace-driven sequence of :class:`JobRequest` submissions
whose workloads are drawn from the reproduced suites (OHB GroupBy/SortBy
plus the HiBench specs) with per-job sizes and parallelism sampled from a
seeded distribution.

Determinism contract: every draw for job ``i`` comes from a substream
keyed ``(trace seed, "job", i)`` — never from a shared sequential stream —
so job ``i`` of a 2-job trace is byte-identical to job ``i`` of a 50-job
trace with the same seed, and adding/removing neighbours can never perturb
an existing job's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import SeededRng, derive_seed
from repro.util.units import GiB, MiB

# Default job mix: OHB micro-shuffles plus a compute-heavy, an
# iterate-heavy and an HDFS-heavy HiBench member, weighted toward the
# shuffle-dominated workloads the paper's transports differentiate on.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("GroupByTest", 0.30),
    ("SortByTest", 0.25),
    ("LR", 0.15),
    ("GMM", 0.15),
    ("TeraSort", 0.15),
)

OHB_WORKLOADS = ("GroupByTest", "SortByTest")


@dataclass(frozen=True)
class JobRequest:
    """One application submission in an arrival trace."""

    app_id: int
    workload: str  # registry name (OHB workload or HiBench spec)
    submit_s: float  # arrival time on the server's clock
    nominal_bytes: int  # per-job data size (seeded sample)
    parallelism: int  # requested concurrent-task slots
    fidelity: float = 0.5  # task-folding fidelity for the scaled profile

    @property
    def name(self) -> str:
        return f"app{self.app_id}-{self.workload}"


@dataclass(frozen=True)
class ArrivalTrace:
    """A frozen, seeded sequence of job submissions."""

    seed: int
    jobs: tuple[JobRequest, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def makespan_floor_s(self) -> float:
        """Last arrival time — a lower bound on the trace's busy period."""
        return self.jobs[-1].submit_s if self.jobs else 0.0


def _pick_weighted(rng: SeededRng, mix: tuple[tuple[str, float], ...]) -> str:
    total = sum(w for _, w in mix)
    x = rng.random() * total
    acc = 0.0
    for name, w in mix:
        acc += w
        if x < acc:
            return name
    return mix[-1][0]


def poisson_trace(
    seed: int,
    n_jobs: int,
    mean_interarrival_s: float = 4.0,
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX,
    min_bytes: int = 256 * MiB,
    max_bytes: int = 2 * GiB,
    parallelism_choices: tuple[int, ...] = (2, 4, 6, 8),
    fidelity: float = 0.5,
) -> ArrivalTrace:
    """A Poisson arrival process over a seeded workload mix.

    Inter-arrival gaps are exponential with the given mean; sizes are
    log-uniform in ``[min_bytes, max_bytes]``; parallelism is drawn
    uniformly from ``parallelism_choices``. Each job's draws come from its
    own ``(seed, "job", i)`` substream (see the module determinism
    contract); the arrival *clock* accumulates gap ``i`` from job ``i``'s
    substream, so truncating a trace never re-times its prefix.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    if min_bytes > max_bytes:
        raise ValueError("min_bytes > max_bytes")
    import math

    jobs: list[JobRequest] = []
    t = 0.0
    for i in range(n_jobs):
        rng = SeededRng(derive_seed(seed, "job", i))
        t += rng.expovariate(1.0 / mean_interarrival_s)
        size = int(
            math.exp(
                rng.uniform(math.log(float(min_bytes)), math.log(float(max_bytes)))
            )
        )
        jobs.append(
            JobRequest(
                app_id=i,
                workload=_pick_weighted(rng, mix),
                submit_s=t,
                nominal_bytes=size,
                parallelism=rng.choice(parallelism_choices),
                fidelity=fidelity,
            )
        )
    return ArrivalTrace(seed=seed, jobs=tuple(jobs))


def trace_from_rows(seed: int, rows: list[dict]) -> ArrivalTrace:
    """Build a trace from explicit rows (replay of a recorded schedule).

    Rows need ``workload`` and ``submit_s``; everything else defaults.
    """
    jobs = tuple(
        JobRequest(
            app_id=int(row.get("app_id", i)),
            workload=str(row["workload"]),
            submit_s=float(row["submit_s"]),
            nominal_bytes=int(row.get("nominal_bytes", 512 * MiB)),
            parallelism=int(row.get("parallelism", 4)),
            fidelity=float(row.get("fidelity", 0.5)),
        )
        for i, row in enumerate(rows)
    )
    return ArrivalTrace(seed=seed, jobs=jobs)
