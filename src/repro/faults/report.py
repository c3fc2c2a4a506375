"""Availability reports: what happened, how long recovery took.

A :class:`AvailabilityReport` is the output artifact of one chaos run: the
fault timeline as injected, the recovery counters the scheduler recorded,
and the baseline-vs-faulted timing comparison. Rendering is fully
deterministic (fixed-precision formatting, no wall-clock anywhere) so two
same-seed runs produce byte-identical reports — that property is itself
asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it actually fired (simulated time)."""

    t_s: float
    kind: str
    detail: str

    def render(self) -> str:
        return f"  t={self.t_s:.6f}s  {self.kind:<16} {self.detail}"


@dataclass
class AvailabilityReport:
    """Outcome of one (workload, transport, fault plan) cell."""

    scenario: str
    transport: str
    fault_mode: str  # "abort" | "shrink" | "n/a"
    seed: int
    timeline: list[FaultEvent] = field(default_factory=list)
    # -- recovery counters (filled by the scheduler) ------------------------
    task_retries: int = 0
    stage_resubmissions: int = 0
    executors_lost: int = 0
    blacklisted: int = 0
    # -- outcome ------------------------------------------------------------
    job_completed: bool = False
    job_failure: str = ""
    baseline_seconds: float = 0.0
    faulted_seconds: float = 0.0
    # Counter-wise faulted-minus-baseline diffs for the scheduler/retry
    # metrics (repro.obs); zero deltas are dropped before they get here.
    metric_deltas: dict[str, float] = field(default_factory=dict)

    @property
    def recovery_seconds(self) -> float:
        """Extra job time attributable to the faults (0 if the job failed)."""
        if not self.job_completed:
            return 0.0
        return max(0.0, self.faulted_seconds - self.baseline_seconds)

    def record(self, t_s: float, kind: str, detail: str) -> None:
        self.timeline.append(FaultEvent(t_s, kind, detail))

    def render(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"transport: {self.transport} (fault mode: {self.fault_mode})",
            f"seed: {self.seed}",
            "faults injected:",
        ]
        if self.timeline:
            lines.extend(ev.render() for ev in self.timeline)
        else:
            lines.append("  (none)")
        lines.extend(
            [
                "recovery:",
                f"  task retries:        {self.task_retries}",
                f"  stage resubmissions: {self.stage_resubmissions}",
                f"  executors lost:      {self.executors_lost}",
                f"  blacklisted:         {self.blacklisted}",
                "outcome:",
                f"  job completed:       {'yes' if self.job_completed else 'no'}"
                + (f" ({self.job_failure})" if self.job_failure else ""),
                f"  baseline:            {self.baseline_seconds:.6f}s",
                f"  with faults:         {self.faulted_seconds:.6f}s",
                f"  recovery overhead:   {self.recovery_seconds:.6f}s",
            ]
        )
        if self.metric_deltas:
            lines.append("metric deltas (faulted - baseline):")
            lines.extend(
                f"  {name:<36} {delta:+.6f}"
                for name, delta in sorted(self.metric_deltas.items())
            )
        return "\n".join(lines)


def render_matrix(reports: list[AvailabilityReport]) -> str:
    """One row per transport cell — the benchmark's summary table."""
    header = (
        f"{'transport':<18} {'mode':<7} {'completed':<10} "
        f"{'baseline_s':>12} {'faulted_s':>12} {'recovery_s':>12} "
        f"{'retries':>8} {'resubmits':>10} {'lost':>5}"
    )
    rows = [header, "-" * len(header)]
    for r in reports:
        rows.append(
            f"{r.transport:<18} {r.fault_mode:<7} "
            f"{('yes' if r.job_completed else 'no'):<10} "
            f"{r.baseline_seconds:>12.6f} {r.faulted_seconds:>12.6f} "
            f"{r.recovery_seconds:>12.6f} "
            f"{r.task_retries:>8} {r.stage_resubmissions:>10} "
            f"{r.executors_lost:>5}"
        )
    return "\n".join(rows)
