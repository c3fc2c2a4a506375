"""JCT report layer: percentile tables and the BENCH payload.

Aggregates :class:`~repro.jobserver.server.JobServerResult` sweeps (one
per transport × scheduler) into the paper-style comparison the contention
study needs: per-cell p50/p99 job completion time and queueing delay,
plus makespan. ``payload()`` is the canonical JSON written to
``results/BENCH_jobserver.json`` (sorted keys, fixed float repr through
``json``), and ``digest()`` is the SHA-256 over that canonical form —
``benchmarks/test_jobserver.py`` asserts it is reproducible run-over-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.jobserver.server import JobServerResult
from repro.util.stats import percentile


@dataclass(frozen=True)
class CellStats:
    """One (transport, scheduler) cell of the contention study."""

    transport: str
    scheduler: str
    n_jobs: int
    n_failed: int
    p50_jct_s: float
    p99_jct_s: float
    mean_jct_s: float
    p50_queue_s: float
    p99_queue_s: float
    max_queue_s: float
    makespan_s: float

    def as_row(self) -> dict:
        return {
            "transport": self.transport,
            "scheduler": self.scheduler,
            "n_jobs": self.n_jobs,
            "n_failed": self.n_failed,
            "p50_jct_s": self.p50_jct_s,
            "p99_jct_s": self.p99_jct_s,
            "mean_jct_s": self.mean_jct_s,
            "p50_queue_s": self.p50_queue_s,
            "p99_queue_s": self.p99_queue_s,
            "max_queue_s": self.max_queue_s,
            "makespan_s": self.makespan_s,
        }


def cell_stats(result: JobServerResult) -> CellStats:
    jcts = result.jcts()
    queues = result.queue_delays()
    if not jcts:
        raise ValueError(
            f"no finished jobs in {result.transport}/{result.scheduler} cell"
        )
    return CellStats(
        transport=result.transport,
        scheduler=result.scheduler,
        n_jobs=len(result.records),
        n_failed=sum(1 for r in result.records if r.failed is not None),
        p50_jct_s=percentile(jcts, 50),
        p99_jct_s=percentile(jcts, 99),
        mean_jct_s=sum(jcts) / len(jcts),
        p50_queue_s=percentile(queues, 50),
        p99_queue_s=percentile(queues, 99),
        max_queue_s=max(queues),
        makespan_s=result.makespan_s,
    )


@dataclass
class JobServerReport:
    """The full contention study: cells keyed (transport, scheduler)."""

    system: str
    n_workers: int
    seed: int
    n_jobs: int
    cells: list[CellStats] = field(default_factory=list)

    @classmethod
    def from_results(cls, results: list[JobServerResult]) -> "JobServerReport":
        if not results:
            raise ValueError("no results to report")
        first = results[0]
        report = cls(
            system=first.system,
            n_workers=first.n_workers,
            seed=first.seed,
            n_jobs=len(first.records),
        )
        for res in results:
            report.cells.append(cell_stats(res))
        return report

    def cell(self, transport: str, scheduler: str) -> CellStats | None:
        return next(
            (c for c in self.cells
             if c.transport == transport and c.scheduler == scheduler),
            None,
        )

    def payload(self) -> dict:
        """The canonical BENCH_jobserver.json content."""
        return {
            "figure": "jobserver",
            "system": self.system,
            "n_workers": self.n_workers,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "rows": [c.as_row() for c in self.cells],
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical row JSON (the CI determinism gate)."""
        canon = json.dumps(
            [c.as_row() for c in self.cells], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def render(self) -> str:
        """Text table, one row per (transport, scheduler) cell."""
        cols = (
            "transport", "sched", "jobs",
            "p50 JCT", "p99 JCT", "mean JCT",
            "p50 queue", "p99 queue", "makespan",
        )
        rows = [
            (
                c.transport, c.scheduler, str(c.n_jobs),
                f"{c.p50_jct_s:.2f}", f"{c.p99_jct_s:.2f}", f"{c.mean_jct_s:.2f}",
                f"{c.p50_queue_s:.2f}", f"{c.p99_queue_s:.2f}",
                f"{c.makespan_s:.2f}",
            )
            for c in self.cells
        ]
        widths = [
            max(len(cols[i]), *(len(r[i]) for r in rows)) if rows else len(cols[i])
            for i in range(len(cols))
        ]
        lines = [
            f"jobserver contention study [{self.system}, {self.n_workers} workers, "
            f"{self.n_jobs} jobs, seed {self.seed}]",
            "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        lines.append(f"digest: {self.digest()}")
        return "\n".join(lines)
