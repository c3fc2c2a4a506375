"""What-if replay: re-time a recorded causal run under perturbed knobs.

A causally-traced run (:mod:`repro.obs.flightrec`) already contains the
full dependency structure of every stage: which task ran where, when its
slot was granted, and how every fetched byte moved — send, match, and
delivery timestamped per message.  Most capacity-planning questions
("what if the NIC were twice as fast?", "what if Basic's polling tax
were zero?") are therefore answerable *analytically*, by re-timing the
recorded DAG, without paying for a re-simulation.

The model (DESIGN.md §14):

* Each task decomposes into additive buckets — fixed scheduling delay,
  compute (+combine), serialized shuffle write, local ramdisk read, wire,
  exposed matching dwell, and an unattributed remainder.  The network
  buckets come from an interval-union decomposition of the run's *global*
  wire activity clipped to the task's fetch window: a reduce task is
  paced by every transfer in flight during its fetch (its own and its
  neighbours'), not just by bytes addressed to it.
* A message span contributes a *wire-busy leg* whose position depends on
  the protocol: a rendezvous transfer moves its payload after the match
  (``[match, recv]``), an eager or socket transfer before delivery
  (``[send, arrival]``).  Unexpected-queue dwell (``mpi.match
  waited_s``) contributes a poll-sensitive leg only where it is
  *exposed* — not overlapped by any wire-busy interval.  Overlapped
  dwell is backpressure, already paid for by the wire; this is why
  critical-path *attribution* (poll-tax share in
  :mod:`repro.obs.critpath`) and what-if *sensitivity* disagree for
  MPI4Spark-Basic, by design.
* Re-timing is delta-form: a perturbed task keeps its recorded duration
  plus ``sum(bucket * (factor - 1))``, and stages re-pack task waves
  through per-executor slot heaps that reproduce the FIFO slot-grant
  semantics of the scheduler.  With the identity perturbation every
  delta is zero, so the replay reproduces the recorded wall *exactly* —
  the engine's self-test.

Blind spots (also §14): the DAG shape is frozen (task count, data
placement and message sizes never change under a knob), link scaling
assumes fluid-rate linearity, and the ``executors`` knob only re-widths
the wave packing — per-executor contention is assumed unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.obs.critpath import polls_for_messages
from repro.obs.flightrec import FlightEvent, FlightIndex, FlightRecorder, flight_of
from repro.simnet.interconnect import DEFAULT_COST

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.deploy import RunResult


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """A declarative set of knob changes to re-time a recorded run under.

    Every knob is a multiplier on the *resource*, not on the time: a
    ``link_rate`` of 2.0 means a twice-as-fast NIC (wire time halves),
    ``serializer_rate=2.0`` a twice-as-fast shuffle-write serializer.
    ``poll_tax`` scales the *exposed* matching dwell directly (0.0 models
    a perfectly discovered unexpected queue), and ``compute`` scales
    task compute cost (0.5 = twice-as-fast cores).  ``executors``
    re-widths the stage wave packing to that many executors (analytic
    only — see the module blind spots).
    """

    name: str = ""
    link_rate: float = 1.0
    poll_tax: float = 1.0
    serializer_rate: float = 1.0
    local_read_rate: float = 1.0
    compute: float = 1.0
    executors: int | None = None

    def describe(self) -> str:
        """Human-readable knob summary, e.g. ``link_rate x2``."""
        parts = []
        if self.link_rate != 1.0:
            parts.append(f"link_rate x{self.link_rate:g}")
        if self.poll_tax != 1.0:
            parts.append(f"poll_tax x{self.poll_tax:g}")
        if self.serializer_rate != 1.0:
            parts.append(f"serializer x{self.serializer_rate:g}")
        if self.local_read_rate != 1.0:
            parts.append(f"local_read x{self.local_read_rate:g}")
        if self.compute != 1.0:
            parts.append(f"compute x{self.compute:g}")
        if self.executors is not None:
            parts.append(f"executors={self.executors}")
        return ", ".join(parts) if parts else "identity"


IDENTITY = Perturbation(name="identity")

# The planner's default sweep: one step on each first-class knob.
DEFAULT_GRID: tuple[Perturbation, ...] = (
    Perturbation(name="2x NIC", link_rate=2.0),
    Perturbation(name="4x NIC", link_rate=4.0),
    Perturbation(name="0.5x NIC", link_rate=0.5),
    Perturbation(name="zero poll-tax", poll_tax=0.0),
    Perturbation(name="2x serializer", serializer_rate=2.0),
    Perturbation(name="2x ramdisk read", local_read_rate=2.0),
    Perturbation(name="2x compute", compute=0.5),
)


# ---------------------------------------------------------------------------
# Replay model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskRecord:
    """One recorded task, decomposed into perturbable duration buckets.

    ``fixed + compute + write + local + wire + dwell + rest`` accounts
    for the full recorded duration ``end - start``.
    """

    index: int
    exec_id: int
    start: float
    end: float
    fixed: float
    compute: float
    write: float
    local: float
    wire: float
    dwell: float
    rest: float


@dataclass(frozen=True)
class StageRecord:
    """One stage: its recorded bounds and index-ordered task records."""

    label: str
    t0: float
    t1: float
    tasks: tuple[TaskRecord, ...]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Prediction:
    """The re-timed wall clock under one perturbation."""

    perturbation: Perturbation
    wall_s: float
    baseline_s: float
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.wall_s if self.wall_s > 0 else float("inf")


def _merged(intervals: Iterable[tuple[float, float]]) -> list[list[float]]:
    """Sorted, coalesced interval list."""
    out: list[list[float]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return out


def _clipped_len(merged: Sequence[Sequence[float]], lo: float, hi: float) -> float:
    """Total length of ``merged`` intersected with ``[lo, hi]``."""
    total = 0.0
    for s, e in merged:
        if e <= lo:
            continue
        if s >= hi:
            break
        total += min(e, hi) - max(s, lo)
    return total


def _global_legs(
    index: FlightIndex, rndv: int
) -> tuple[list[list[float]], list[list[float]]]:
    """The run's merged wire-busy union and wire-or-dwell union.

    A pure function of the index and the rendezvous threshold, so it is
    memoized on the index: a second model of the same recording (the
    HTML report's planner section) does not redo the sort.
    """
    recvs = index.recv
    matches = index.match
    waited = index.waited
    wire_legs: list[tuple[float, float]] = []
    dwell_legs: list[tuple[float, float]] = []
    for span, send in index.send.items():
        send_t = send.t
        m = matches.get(span)
        close = recvs.get(span, m)
        if close is None:
            continue  # aborted / still-open span: no closed leg
        if m is None:
            # Socket transfer: payload on the wire until delivery.
            if close > send_t:
                wire_legs.append((send_t, close))
            continue
        dwell = waited.get(span, 0.0)
        arrival = m - dwell
        if send.attrs.get("nbytes", 0) > rndv:
            # Rendezvous: the envelope is an RTS; the payload moves
            # after the match (CTS + bulk transfer).
            if close > m:
                wire_legs.append((m, close))
        else:
            # Eager: the payload rode the envelope to the receiver.
            if arrival > send_t:
                wire_legs.append((send_t, arrival))
        if dwell > 0 and m > arrival:
            dwell_legs.append((arrival, m))
    wire = _merged(wire_legs)
    # Coalescing is a closure, so the union over the already-merged wire
    # plus the dwell legs is the union over all legs, without sorting the
    # wire legs a second time.
    return wire, _merged([*map(tuple, wire), *dwell_legs])


class ReplayModel:
    """The re-timeable form of one recorded run.

    Build with :meth:`from_flight` (a :class:`FlightRecorder`, live or
    loaded from JSONL) or :meth:`from_result` (a traced
    :class:`~repro.spark.deploy.RunResult`), then call :meth:`retime`
    with a :class:`Perturbation`.
    """

    def __init__(
        self,
        stages: Sequence[StageRecord],
        transport: str,
        slots_per_executor: int,
        n_executors: int,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.stages = tuple(stages)
        self.transport = transport
        self.slots_per_executor = int(slots_per_executor)
        self.n_executors = int(n_executors)
        self.meta = dict(meta or {})

    # -- construction -------------------------------------------------------
    @classmethod
    def from_flight(
        cls,
        flight: FlightRecorder,
        transport: str | None = None,
        slots_per_executor: int | None = None,
        n_executors: int | None = None,
    ) -> "ReplayModel":
        """Reconstruct the replay model from a flight recording.

        The ``run.meta`` header (recorded by ``run_profile``) supplies
        the transport, slot width and executor count; explicit arguments
        override it.  Multi-tenant job-server traces interleave
        applications on shared slot gates, which the wave re-packing
        cannot reproduce — they are rejected.
        """
        tables = flight.index()
        if tables.job_submit or tables.job_start:
            raise ValueError(
                "what-if replay does not support multi-tenant job-server "
                "traces: applications contend on shared slot gates, which "
                "the single-tenant wave re-packing cannot re-time"
            )
        meta = tables.meta  # the geometry in force at the end of the run

        transport = transport or meta.get("transport")
        if transport is None:
            raise ValueError(
                "transport unknown: pass transport= or record a run.meta event"
            )
        if slots_per_executor is None:
            slots_per_executor = meta.get("slots_per_executor")
        if slots_per_executor is None:
            raise ValueError(
                "slot width unknown: pass slots_per_executor= or record run.meta"
            )
        if n_executors is None:
            n_executors = meta.get("n_workers")
        # A trace that predates the run.meta header falls back on the
        # default cost model's eager→rendezvous switch; a recorded 0 is
        # a threshold (every matched payload moves after its match).
        rndv = meta.get("rendezvous_threshold", DEFAULT_COST.rendezvous_threshold)

        global_wire, global_all = tables.memoized(
            ("whatif.legs", rndv), lambda: _global_legs(tables, rndv)
        )

        poll_sensitive = polls_for_messages(transport)

        def record(st: FlightEvent, fin: FlightEvent) -> TaskRecord:
            label = fin.attrs.get("task", "")
            a = fin.attrs
            duration = fin.t - st.t
            compute = a.get("compute_s", 0.0) + a.get("combine_s", 0.0)
            write = a.get("write_s", 0.0)
            fetch = a.get("fetch_wait_s", 0.0)
            local = wire = dwell = 0.0
            if fetch > 0:
                fetch_end = fin.t - a.get("combine_s", 0.0)
                fetch_start = fetch_end - fetch
                local = a.get("local_s")
                if local is None:
                    raise ValueError(
                        f"local read time unknown: task {label!r} records "
                        "fetch_wait_s but no local_s attribute"
                    )
                lo = fetch_start + local
                wire = _clipped_len(global_wire, lo, fetch_end)
                if poll_sensitive:
                    covered = _clipped_len(global_all, lo, fetch_end)
                    dwell = max(covered - wire, 0.0)
            rest = max(fetch - local - wire - dwell, 0.0)
            fixed = max(duration - compute - write - fetch, 0.0)
            tail = label.rsplit("task", 1)
            index = int(tail[1]) if len(tail) == 2 and tail[1].isdigit() else 0
            return TaskRecord(
                index=index,
                exec_id=a.get("exec", 0),
                start=st.t,
                end=fin.t,
                fixed=fixed,
                compute=compute,
                write=write,
                local=local,
                wire=wire,
                dwell=dwell,
                rest=rest,
            )

        per_stage = {
            label: tuple(sorted(
                (record(st, fin) for _, st, fin in tasks), key=lambda r: r.index
            ))
            for label, tasks in tables.stage_tasks().items()
        }
        stages = [
            StageRecord(
                label=label, t0=start.t, t1=finish.t, tasks=per_stage.get(label, ())
            )
            for label, start, finish in tables.stage_pairs
        ]
        if n_executors is None:
            seen = {t.exec_id for s in stages for t in s.tasks}
            n_executors = max(len(seen), 1)
        return cls(
            stages,
            transport=transport,
            slots_per_executor=int(slots_per_executor),
            n_executors=int(n_executors),
            meta=meta,
        )

    @classmethod
    def from_result(cls, result: "RunResult") -> "ReplayModel":
        """Build from a traced :class:`RunResult` (``obs_causal=True``)."""
        return cls.from_flight(flight_of(result), transport=result.transport)

    # -- re-timing ----------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """The recorded wall clock (sum of stage walls)."""
        return sum(s.wall for s in self.stages)

    def retime(self, perturbation: Perturbation = IDENTITY) -> Prediction:
        """Re-time the recorded DAG under ``perturbation``.

        Per-task duration deltas are propagated through a per-executor
        slot-heap wave packing (the longest-path forward pass over the
        stage's task DAG); stage walls shift by the change in the last
        task's finish.  The identity perturbation reproduces the
        recorded wall bit-exactly.
        """
        p = perturbation
        f_wire = 1.0 / p.link_rate
        f_write = 1.0 / p.serializer_rate
        f_local = 1.0 / p.local_read_rate
        n_exec = p.executors if p.executors is not None else self.n_executors
        if n_exec < 1:
            raise ValueError("executors must be >= 1")
        slots = self.slots_per_executor
        stage_seconds: dict[str, float] = {}
        for stage in self.stages:
            if not stage.tasks:
                stage_seconds[stage.label] = stage.wall
                continue
            heaps: dict[int, list[float]] = {}
            max_end = rec_max_end = stage.t0
            for task in stage.tasks:
                key = task.index % n_exec if p.executors is not None else task.exec_id
                heap = heaps.get(key)
                if heap is None:
                    heap = heaps[key] = [stage.t0] * slots
                free = heapq.heappop(heap)
                start = free if free > stage.t0 else stage.t0
                delta = (
                    task.compute * (p.compute - 1.0)
                    + task.write * (f_write - 1.0)
                    + task.local * (f_local - 1.0)
                    + task.wire * (f_wire - 1.0)
                    + task.dwell * (p.poll_tax - 1.0)
                )
                end = task.end + (start - task.start) + delta
                heapq.heappush(heap, end)
                if end > max_end:
                    max_end = end
                if task.end > rec_max_end:
                    rec_max_end = task.end
            # Delta-form against the recorded stage wall: driver-side time
            # after the last task (if any) is preserved unscaled, and the
            # identity perturbation is exactly the recorded wall.
            stage_seconds[stage.label] = stage.wall + (max_end - rec_max_end)
        wall = sum(stage_seconds.values())
        return Prediction(
            perturbation=p,
            wall_s=wall,
            baseline_s=self.wall_s,
            stage_seconds=stage_seconds,
        )

    def sensitivity(
        self,
        grid: Sequence[Perturbation] | None = None,
        top_k: int | None = None,
    ) -> list[Prediction]:
        """Rank perturbations by predicted speedup (largest first).

        The default grid is :data:`DEFAULT_GRID` plus a doubled-executor
        re-width.  ``top_k`` truncates the ranking.
        """
        if grid is None:
            grid = DEFAULT_GRID + (
                Perturbation(
                    name=f"{2 * self.n_executors} executors",
                    executors=2 * self.n_executors,
                ),
            )
        ranked = sorted(
            (self.retime(p) for p in grid),
            key=lambda pred: (-pred.speedup, pred.perturbation.name),
        )
        return ranked[:top_k] if top_k is not None else ranked

    # -- introspection ------------------------------------------------------
    def bucket_seconds(self) -> dict[str, float]:
        """Total task-seconds per bucket (model mass, for reports/tests)."""
        totals = {
            "fixed": 0.0, "compute": 0.0, "write": 0.0, "local": 0.0,
            "wire": 0.0, "dwell": 0.0, "rest": 0.0,
        }
        for stage in self.stages:
            for t in stage.tasks:
                totals["fixed"] += t.fixed
                totals["compute"] += t.compute
                totals["write"] += t.write
                totals["local"] += t.local
                totals["wire"] += t.wire
                totals["dwell"] += t.dwell
                totals["rest"] += t.rest
        return totals


def load_model(path: str, **overrides: Any) -> ReplayModel:
    """Load an exported JSONL trace and build its replay model."""
    return ReplayModel.from_flight(FlightRecorder.load_jsonl(path), **overrides)
