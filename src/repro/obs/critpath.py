"""Critical-path extraction from a causal flight-recorder log.

Answers the question the paper's Sec VI-D/E analysis revolves around:
*which dependency chain made this stage slow, and where inside it did the
time go?*  For every stage the analyzer picks the critical task (the one
finishing last — the stage barrier waits for it) and decomposes its
longest dependency chain into six segments:

* ``compute``    — task compute + combine time (inflated under Basic),
* ``serialize``  — shuffle-write (spill/serialization) time,
* ``queue``      — server turnaround between a request landing and its
  response leaving, plus (for mpi-opt) body dwell before the triggered
  ``MPI_Recv`` was posted,
* ``wire``       — time on the fabric for the chain's request/response
  legs (matching dwell subtracted),
* ``poll-tax``   — unexpected-queue dwell of MPI-matched messages under
  MPI4Spark-Basic: the busy-poll's discovery delay, per message.  Only
  the Basic design busy-polls, so this segment is zero by construction
  elsewhere — the per-transport classification the paper's Fig 9
  argument rests on,
* ``fetch-wait`` — the remainder of the task's measured fetch wait not
  covered by the extracted chain (windowed fetches that overlapped it),
* ``sched-wait`` — inter-job queueing delay on the multi-tenant job
  server (``job.submit`` → ``job.start``), reported as one pseudo-stage
  per application so queueing is a first-class critical-path citizen.
  Single-application runs emit no ``job.*`` events and never see it.

The API is assertion-friendly: ``report.share("poll-tax")`` is what the
fig9 benchmark compares across Basic and Optimized (≥10× is asserted in
``benchmarks/test_fig9_basic_vs_opt.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.flightrec import FlightRecorder, flight_of
from repro.util.units import fmt_columns

SEGMENTS = (
    "compute", "serialize", "queue", "wire", "poll-tax", "fetch-wait",
    "sched-wait",
)


@dataclass
class StageCriticalPath:
    """The critical task of one stage and its chain decomposition."""

    stage: str
    task: str
    start_s: float
    end_s: float
    segments: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.segments.values())

    def seconds(self, segment: str) -> float:
        return self.segments.get(segment, 0.0)


@dataclass
class CriticalPathReport:
    """Per-stage critical paths for one run, with roll-up accessors."""

    transport: str
    stages: list[StageCriticalPath] = field(default_factory=list)

    def segment_seconds(self, segment: str) -> float:
        return sum(s.seconds(segment) for s in self.stages)

    @property
    def total_seconds(self) -> float:
        return sum(s.total_s for s in self.stages)

    def share(self, segment: str) -> float:
        """Fraction of the whole critical path spent in ``segment``."""
        total = self.total_seconds
        return self.segment_seconds(segment) / total if total > 0 else 0.0

    def render(self) -> str:
        """Text table: one row per stage, one column per segment."""
        cols = ["stage", "crit task"] + list(SEGMENTS) + ["total"]
        rows = [
            [
                s.stage,
                s.task,
                *(f"{s.seconds(seg):.4f}" for seg in SEGMENTS),
                f"{s.total_s:.4f}",
            ]
            for s in self.stages
        ]
        rows.append(
            ["TOTAL", "", *(f"{self.segment_seconds(seg):.4f}" for seg in SEGMENTS),
             f"{self.total_seconds:.4f}"]
        )
        lines = [f"critical path [{self.transport}]", *fmt_columns(cols, rows)]
        return "\n".join(lines)


def stage_bounds(flight: FlightRecorder) -> dict[str, tuple[float, float, int]]:
    """``stage label -> (start_t, end_t, n_tasks)`` from stage event pairs.

    Reads the index's ``stage.start`` / ``stage.finish`` pairs and keeps
    first-finish stage order — the alignment key the diff engine
    (:mod:`repro.obs.diff`) matches two recordings on; a restarted stage
    keeps its row and takes its latest pair.  ``n_tasks`` is taken from
    the start event (0 when the recording predates the attr); stages
    whose finish never arrived (crashed runs) are omitted, exactly as
    :func:`analyze` omits their unfinished tasks.
    """
    return {
        label: (start.t, finish.t, int(start.attrs.get("n_tasks", 0)))
        for label, start, finish in flight.index().stage_pairs
    }


def polls_for_messages(transport: str) -> bool:
    """Whether the recorded transport discovers MPI messages by polling.

    The trait is declared on the transport class. Recordings arrive from
    disk, so a name this tree does not know is not poll-sensitive rather
    than an error.
    """
    from repro.transports import transport_class

    try:
        return transport_class(transport).polls_for_messages
    except KeyError:
        return False


def analyze(flight: FlightRecorder, transport: str) -> CriticalPathReport:
    """Walk the causal DAG of a finished run; one critical path per stage."""
    poll_tax = polls_for_messages(transport)
    index = flight.index()
    sends = index.send
    recvs = index.recv
    waited = index.waited
    parent_of = index.parent_of
    children = index.children
    body_legs = index.body_legs
    job_submit = index.job_submit
    job_start = index.job_start

    def dwell(span: int) -> float:
        """Matching dwell of a span plus its child mpi-opt body legs.

        Only body legs count among the children: a response span is also
        a child of its request, and its dwell belongs to the response's
        own leg, not the request's.
        """
        w = waited.get(span, 0.0)
        for c in children.get(span, ()):  # the body leg rejoins this frame
            if c in body_legs:
                w += waited.get(c, 0.0)
        return w

    report = CriticalPathReport(transport=transport)
    for stage_name, entries in index.stage_tasks().items():
        trace, start, fin = max(entries, key=lambda e: (e[2].t, e[0]))
        segments: dict[str, float] = {}

        def add(seg: str, secs: float) -> None:
            if secs > 0:
                segments[seg] = segments.get(seg, 0.0) + secs

        add("compute", fin.attrs.get("compute_s", 0.0) + fin.attrs.get("combine_s", 0.0))
        add("serialize", fin.attrs.get("write_s", 0.0))
        fetch = fin.attrs.get("fetch_wait_s", 0.0)
        chain = 0.0
        if fetch > 0:
            # The chain terminus: the last fully-received message of this
            # task's trace.  Prefer responses (spans whose parent is itself
            # a message span — the request→response edge).
            spans = [s for s in index.trace_spans.get(trace, ()) if s in recvs]
            responses = [s for s in spans if parent_of.get(s) in sends]
            last = max(responses or spans, default=None, key=lambda s: recvs[s])
            if last is not None:
                discovery = 0.0
                resp_w = dwell(last)
                discovery += resp_w
                add("wire", recvs[last] - sends[last].t - resp_w)
                req = parent_of.get(last)
                chain_start = sends[last].t
                if req in sends and req in recvs:
                    req_w = dwell(req)
                    discovery += req_w
                    add("wire", recvs[req] - sends[req].t - req_w)
                    add("queue", sends[last].t - recvs[req])
                    chain_start = sends[req].t
                chain = recvs[last] - chain_start
                # The classification at the heart of Fig 9: only the Basic
                # design discovers MPI messages by busy-polling, so only
                # there is matching dwell a polling tax.
                add("poll-tax" if poll_tax else "queue", discovery)
        add("fetch-wait", fetch - chain)
        report.stages.append(
            StageCriticalPath(
                stage=stage_name,
                task=fin.attrs.get("task", ""),
                start_s=start.t,
                end_s=fin.t,
                segments=segments,
            )
        )
    # Multi-tenant runs: queueing delay (job.submit → job.start) becomes a
    # pseudo-stage per application, ordered by submission time. Absent from
    # single-application flight logs, which carry no job.* events.
    for app in sorted(job_submit, key=lambda a: (job_submit[a], a)):
        started = job_start.get(app)
        if started is None or started <= job_submit[app]:
            continue
        wait = started - job_submit[app]
        report.stages.append(
            StageCriticalPath(
                stage=f"{app}:sched-wait",
                task="",
                start_s=job_submit[app],
                end_s=started,
                segments={"sched-wait": wait},
            )
        )
    return report


def critical_path(result) -> CriticalPathReport:
    """Convenience: analyze a :class:`~repro.spark.deploy.RunResult` that
    ran with ``obs_causal=True``."""
    return analyze(flight_of(result), result.transport)
