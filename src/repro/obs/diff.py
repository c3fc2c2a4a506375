"""Differential run analysis: align two causal recordings, blame the delta.

The paper's whole argument is an A/B comparison — Basic vs Optimized,
transport vs transport, figure by figure — yet a critical-path report
explains one run at a time.  :func:`diff_runs` closes that gap: given two
recorded causal runs (live :class:`~repro.spark.deploy.RunResult` objects
or :class:`~repro.obs.flightrec.FlightRecorder` logs, e.g. loaded from
JSONL), it aligns them stage-by-stage and decomposes the wall-clock delta
into per-segment contributions using the existing critical-path buckets
(:data:`~repro.obs.critpath.SEGMENTS`), plus a per-stage **residual**.

The attribution contract (DESIGN.md §16):

* **Alignment key** is the stage label (``Job1-ShuffleMapStage``, or the
  ``app:sched-wait`` pseudo-stage) in side-A's first-start order; B-only
  stages follow.  Stage walls come from the ``stage.start``/
  ``stage.finish`` event pairs, so the measured wall delta of the diff is
  ``Σ B stage walls − Σ A stage walls`` — for single-application runs
  (stages execute back-to-back) exactly the ``total_seconds`` delta.
* **Segments** per aligned stage are the critical-path decomposition of
  each side, with one re-split: the share of recorded compute that is
  Basic's busy-poll interference (``transport.compute_inflation``, from
  the ``run.meta`` header) is charged to ``poll-tax``, so the cross-
  transport diff attributes the paper's compute-starvation effect to the
  polling design instead of reporting a phantom workload change.  The
  per-stage residual is *defined* as the stage's wall
  delta minus the sum of its segment deltas, so segment contributions
  plus residuals sum to the measured delta by construction —
  :meth:`DiffReport.check` verifies the identity to float precision.
  The residual is where uninstrumented time lives (non-critical-task
  skew, local reads, wave packing), and a large residual is itself a
  finding: the regression is outside the instrumented buckets.
* **Structural mismatches** are first-class :class:`StructuralNode`
  entries, never silently dropped: a stage present on one side only
  contributes its whole wall (``stage-added``/``stage-removed``); an
  aligned stage whose task count drifted (``task-count``) or whose tasks
  re-packed into a different number of scheduler waves (``wave-repack``,
  derived from each side's ``run.meta`` slot geometry) is annotated —
  the annotated stage's time delta still flows through its segments and
  residual, so the sum identity is unaffected.

Self-diff identity: diffing a recording against itself yields exact-zero
deltas in every segment, zero residual and no structural nodes — the
property test the whole attribution rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.critpath import SEGMENTS, analyze, stage_bounds
from repro.util.units import fmt_columns

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder

# Structural diff-node kinds, in severity order.
STRUCTURAL_KINDS = ("stage-added", "stage-removed", "task-count", "wave-repack")

# run.meta keys compared between the two sides (reported, never fatal:
# diffing across code versions or knob settings is the point).
_META_KEYS = (
    "workload", "transport", "system", "n_workers", "cores_per_executor",
    "slots_per_executor", "seed", "n_stages", "n_tasks",
)

# Sum-identity tolerance: the per-stage residual makes the identity hold
# by construction; fsum re-association can still cost a few ulps.
IDENTITY_TOL = 1e-9


@dataclass
class StructuralNode:
    """One structural mismatch between the two runs.

    ``delta_s`` is the node's *contribution* to the wall delta: the full
    stage wall for ``stage-added``/``stage-removed`` (signed: B-only
    stages add time, A-only stages remove it), and 0.0 for the
    annotation kinds (``task-count``, ``wave-repack``) whose time delta
    already flows through the aligned stage's segments and residual.
    """

    kind: str
    stage: str
    detail: str
    delta_s: float = 0.0


@dataclass
class StageDiff:
    """One aligned stage: walls, per-segment (A, B) seconds, residual."""

    stage: str
    a_wall_s: float
    b_wall_s: float
    segments: dict[str, tuple[float, float]] = field(default_factory=dict)
    residual_s: float = 0.0
    nodes: list[StructuralNode] = field(default_factory=list)

    @property
    def delta_s(self) -> float:
        return self.b_wall_s - self.a_wall_s

    def segment_delta(self, segment: str) -> float:
        a, b = self.segments.get(segment, (0.0, 0.0))
        return b - a


@dataclass
class DiffReport:
    """The full differential analysis of two recorded runs."""

    a_label: str
    b_label: str
    transport_a: str
    transport_b: str
    stages: list[StageDiff] = field(default_factory=list)
    structural: list[StructuralNode] = field(default_factory=list)
    meta_a: dict[str, Any] = field(default_factory=dict)
    meta_b: dict[str, Any] = field(default_factory=dict)

    # -- roll-ups -------------------------------------------------------------
    @property
    def a_wall_s(self) -> float:
        removed = [-n.delta_s for n in self.structural if n.kind == "stage-removed"]
        return math.fsum([s.a_wall_s for s in self.stages] + removed)

    @property
    def b_wall_s(self) -> float:
        added = [n.delta_s for n in self.structural if n.kind == "stage-added"]
        return math.fsum([s.b_wall_s for s in self.stages] + added)

    @property
    def wall_delta_s(self) -> float:
        """The measured delta: Σ B stage walls − Σ A stage walls."""
        return self.b_wall_s - self.a_wall_s

    def segment_delta(self, segment: str) -> float:
        return math.fsum(s.segment_delta(segment) for s in self.stages)

    @property
    def residual_s(self) -> float:
        return math.fsum(s.residual_s for s in self.stages)

    @property
    def attributed_delta_s(self) -> float:
        """Sum of every attribution term; equals :attr:`wall_delta_s`."""
        terms: list[float] = []
        for s in self.stages:
            terms.extend(s.segment_delta(seg) for seg in s.segments)
            terms.append(s.residual_s)
        terms.extend(
            n.delta_s
            for n in self.structural
            if n.kind in ("stage-added", "stage-removed")
        )
        return math.fsum(terms)

    # -- the blame surface ----------------------------------------------------
    def contributions(self) -> list[tuple[str, str, float]]:
        """Attribution terms ``(kind, name, delta_s)``, largest |Δ| first.

        Kinds: ``segment`` (name is the critpath bucket), ``residual``,
        and ``structural`` (name is ``stage-added:<stage>`` etc.).  The
        deltas sum to :attr:`wall_delta_s` — that is :meth:`check`.
        """
        out: list[tuple[str, str, float]] = []
        for seg in SEGMENTS:
            delta = self.segment_delta(seg)
            if delta != 0.0:
                out.append(("segment", seg, delta))
        if self.residual_s != 0.0:
            out.append(("residual", "residual", self.residual_s))
        for n in self.structural:
            if n.kind in ("stage-added", "stage-removed") and n.delta_s != 0.0:
                out.append(("structural", f"{n.kind}:{n.stage}", n.delta_s))
        out.sort(key=lambda c: (-abs(c[2]), c[1]))
        return out

    def top_contributor(self) -> str | None:
        """Name of the largest-|Δ| attribution term (None on identity)."""
        contribs = self.contributions()
        return contribs[0][1] if contribs else None

    def check(self, tol: float = IDENTITY_TOL) -> None:
        """Assert the sum identity: attributions == measured wall delta."""
        gap = abs(self.attributed_delta_s - self.wall_delta_s)
        scale = max(1.0, abs(self.wall_delta_s))
        if gap > tol * scale:
            raise AssertionError(
                f"attribution leak: terms sum to {self.attributed_delta_s!r}, "
                f"measured wall delta is {self.wall_delta_s!r} (gap {gap:g})"
            )

    def is_identity(self) -> bool:
        """True iff the diff is exactly zero everywhere (self-diff)."""
        return (
            not self.structural
            and not any(s.nodes for s in self.stages)
            and all(
                s.delta_s == 0.0
                and s.residual_s == 0.0
                and all(s.segment_delta(seg) == 0.0 for seg in s.segments)
                for s in self.stages
            )
        )

    def meta_mismatches(self) -> dict[str, tuple[Any, Any]]:
        """run.meta keys whose values differ between the sides."""
        out: dict[str, tuple[Any, Any]] = {}
        for key in _META_KEYS:
            a, b = self.meta_a.get(key), self.meta_b.get(key)
            if a != b:
                out[key] = (a, b)
        return out

    def render(self) -> str:
        """Text report: per-stage table, structural nodes, blame ranking."""
        lines = [
            f"run diff: {self.a_label} [{self.transport_a}] -> "
            f"{self.b_label} [{self.transport_b}]",
            f"wall {self.a_wall_s:.4f}s -> {self.b_wall_s:.4f}s "
            f"(delta {self.wall_delta_s:+.4f}s)",
        ]
        mism = self.meta_mismatches()
        if mism:
            lines.append(
                "meta: " + ", ".join(
                    f"{k} {a!r} -> {b!r}" for k, (a, b) in mism.items()
                )
            )
        cols = ["stage", "a wall", "b wall", "delta", "top segment", "residual"]
        rows = []
        for s in self.stages:
            seg_deltas = [
                (seg, s.segment_delta(seg)) for seg in SEGMENTS
                if s.segment_delta(seg) != 0.0
            ]
            top = max(seg_deltas, key=lambda p: abs(p[1]), default=None)
            rows.append([
                s.stage,
                f"{s.a_wall_s:.4f}",
                f"{s.b_wall_s:.4f}",
                f"{s.delta_s:+.4f}",
                f"{top[0]} {top[1]:+.4f}" if top else "-",
                f"{s.residual_s:+.4f}",
            ])
        if rows:
            lines.extend(fmt_columns(cols, rows))
        all_nodes = list(self.structural) + [
            n for s in self.stages for n in s.nodes
        ]
        for n in all_nodes:
            extra = f" ({n.delta_s:+.4f}s)" if n.delta_s else ""
            lines.append(f"structural [{n.kind}] {n.stage}: {n.detail}{extra}")
        contribs = self.contributions()
        if contribs:
            lines.append("blame (terms sum to the measured delta):")
            lines.extend(
                f"  {name:<24} {delta:+.4f}s" for _, name, delta in contribs
            )
        else:
            lines.append("identical runs: zero delta in every term")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able summary (the CI artifact next to the HTML page)."""
        return {
            "a": {"label": self.a_label, "transport": self.transport_a,
                  "wall_s": self.a_wall_s},
            "b": {"label": self.b_label, "transport": self.transport_b,
                  "wall_s": self.b_wall_s},
            "wall_delta_s": self.wall_delta_s,
            "residual_s": self.residual_s,
            "segment_deltas": {
                seg: self.segment_delta(seg) for seg in SEGMENTS
            },
            "contributions": [
                {"kind": kind, "name": name, "delta_s": delta}
                for kind, name, delta in self.contributions()
            ],
            "structural": [
                {"kind": n.kind, "stage": n.stage, "detail": n.detail,
                 "delta_s": n.delta_s}
                for n in self.structural + [
                    m for s in self.stages for m in s.nodes
                ]
            ],
            "meta_mismatches": {
                k: list(v) for k, v in self.meta_mismatches().items()
            },
            "stages": [
                {
                    "stage": s.stage,
                    "a_wall_s": s.a_wall_s,
                    "b_wall_s": s.b_wall_s,
                    "delta_s": s.delta_s,
                    "residual_s": s.residual_s,
                    "segments": {
                        seg: {"a_s": a, "b_s": b, "delta_s": b - a}
                        for seg, (a, b) in s.segments.items()
                    },
                }
                for s in self.stages
            ],
        }


# -- side extraction ----------------------------------------------------------

@dataclass
class _Side:
    """One run, normalized for alignment."""

    label: str
    transport: str
    flight: "FlightRecorder"
    meta: dict[str, Any]
    # stage -> (wall_s, n_tasks, segments) in first-start order
    stages: dict[str, tuple[float, int, dict[str, float]]]

    def waves(self, n_tasks: int) -> int | None:
        """Scheduler waves the stage packs into under this side's slots."""
        workers = self.meta.get("n_workers")
        slots = self.meta.get("slots_per_executor")
        if not workers or not slots or n_tasks <= 0:
            return None
        return -(-n_tasks // (int(workers) * int(slots)))


def _coerce_flight(run: Any) -> tuple["FlightRecorder", str | None]:
    """Accept a FlightRecorder or a RunResult carrying one."""
    flight = getattr(run, "flight", None)
    if flight is not None:  # RunResult recorded with obs.causal
        return flight, getattr(run, "transport", None)
    if hasattr(run, "events"):
        return run, None
    raise ValueError(
        f"cannot diff {type(run).__name__}: pass a FlightRecorder or a "
        "RunResult recorded with obs_causal=True"
    )


def _side_of(run: Any, label: str, transport: str | None) -> _Side:
    flight, result_transport = _coerce_flight(run)
    # A side is labelled by the header it started with.
    meta = dict(flight.index().first_meta)
    transport = transport or result_transport or meta.get("transport")
    if not transport:
        raise ValueError(
            f"side {label!r}: transport unknown — pass transport_a/"
            "transport_b or record a run.meta event"
        )
    report = analyze(flight, transport)
    by_stage = {s.stage: s for s in report.stages}
    stages: dict[str, tuple[float, int, dict[str, float]]] = {}
    inflation = float(meta.get("compute_inflation", 1.0) or 1.0)
    for stage, (t0, t1, n_tasks) in stage_bounds(flight).items():
        cp = by_stage.get(stage)
        segments = dict(cp.segments) if cp else {}
        # The polling design's second face (paper Sec VI-D): Basic's
        # busy-poll interference inflates recorded compute_s by the
        # transport's compute_inflation factor.  Re-split the critical
        # task's compute into pure compute + interference and charge the
        # interference to poll-tax, so a cross-transport diff blames the
        # polling design rather than reporting a phantom workload change.
        # The split is exact (tax = compute − compute/inflation), so the
        # per-stage segment sum — and with it the residual and the sum
        # identity — is unchanged; same-recording diffs stay exact zero.
        if inflation != 1.0 and "compute" in segments:
            pure = segments["compute"] / inflation
            tax = segments["compute"] - pure
            segments["compute"] = pure
            segments["poll-tax"] = segments.get("poll-tax", 0.0) + tax
        stages[stage] = (t1 - t0, n_tasks, segments)
    # Pseudo-stages (app:sched-wait) exist only in the critpath report;
    # their wall is the queueing delay itself.
    for s in report.stages:
        if s.stage not in stages:
            stages[s.stage] = (s.end_s - s.start_s, 0, dict(s.segments))
    return _Side(
        label=label, transport=transport, flight=flight, meta=meta,
        stages=stages,
    )


# -- the engine ---------------------------------------------------------------

def diff_runs(
    a: Any,
    b: Any,
    *,
    a_label: str = "A",
    b_label: str = "B",
    transport_a: str | None = None,
    transport_b: str | None = None,
) -> DiffReport:
    """Align run ``a`` against run ``b``; attribute ``b − a`` wall delta.

    Both arguments accept a :class:`~repro.spark.deploy.RunResult`
    recorded with ``obs_causal=True`` or a bare
    :class:`~repro.obs.flightrec.FlightRecorder` (e.g. loaded from a
    committed baseline JSONL).  The returned report satisfies the sum
    identity (:meth:`DiffReport.check`): per-segment deltas + residuals
    + added/removed stage walls == measured wall delta.
    """
    side_a = _side_of(a, a_label, transport_a)
    side_b = _side_of(b, b_label, transport_b)
    report = DiffReport(
        a_label=a_label,
        b_label=b_label,
        transport_a=side_a.transport,
        transport_b=side_b.transport,
        meta_a=side_a.meta,
        meta_b=side_b.meta,
    )
    for stage, (a_wall, a_tasks, a_segs) in side_a.stages.items():
        if stage not in side_b.stages:
            report.structural.append(StructuralNode(
                kind="stage-removed",
                stage=stage,
                detail=f"only in {a_label} ({a_wall:.4f}s)",
                delta_s=-a_wall,
            ))
            continue
        b_wall, b_tasks, b_segs = side_b.stages[stage]
        segments = {
            seg: (a_segs.get(seg, 0.0), b_segs.get(seg, 0.0))
            for seg in SEGMENTS
            if seg in a_segs or seg in b_segs
        }
        seg_deltas = [b_v - a_v for a_v, b_v in segments.values()]
        sd = StageDiff(
            stage=stage,
            a_wall_s=a_wall,
            b_wall_s=b_wall,
            segments=segments,
            residual_s=(b_wall - a_wall) - math.fsum(seg_deltas),
        )
        if a_tasks != b_tasks and a_tasks and b_tasks:
            sd.nodes.append(StructuralNode(
                kind="task-count",
                stage=stage,
                detail=f"{a_tasks} -> {b_tasks} tasks",
            ))
        waves_a = side_a.waves(a_tasks)
        waves_b = side_b.waves(b_tasks)
        if waves_a is not None and waves_b is not None and waves_a != waves_b:
            sd.nodes.append(StructuralNode(
                kind="wave-repack",
                stage=stage,
                detail=f"{waves_a} -> {waves_b} scheduler waves",
            ))
        report.stages.append(sd)
    for stage, (b_wall, _tasks, _segs) in side_b.stages.items():
        if stage not in side_a.stages:
            report.structural.append(StructuralNode(
                kind="stage-added",
                stage=stage,
                detail=f"only in {b_label} ({b_wall:.4f}s)",
                delta_s=b_wall,
            ))
    return report
