"""repro.obs — sim-clock-native observability for the reproduction.

The registry measures *where simulated time and bytes go* (event-loop
busy fractions, MPI polling tax, per-link traffic, scheduler phase
breakdowns) in counters only; the causal flight recorder logs every
message, task and stage, so a per-task distribution is read off it.
Critical path, what-if replay, the run diff, the HTML report and the
Chrome-trace export (:mod:`repro.obs.tracer`) all read a recording
through its one :class:`FlightIndex`. Together they turn the paper's
causal claims (Sec VI-D: Basic's ``MPI_Iprobe`` busy-polling starves
compute) into measured columns in the harness reports instead of model
assertions.

Every :class:`~repro.simnet.engine.SimEngine` owns an always-on
:class:`MetricsRegistry` (cheap counters); snapshots, report columns and
tracing are enabled per run by two
:class:`~repro.spark.deploy.SparkSimCluster` keywords:

* ``obs_enabled=True`` — attach a :class:`MetricsSnapshot` to
  each :class:`~repro.spark.deploy.RunResult` and unlock the report's
  polling-tax / busy-% columns;
* ``obs_causal=True`` — install a real :class:`CausalTracer` on
  the engine and attach its flight recording to the ``RunResult``
  (implies ``obs_enabled``).

See DESIGN.md §9 for the metric-name catalogue.
"""

from __future__ import annotations

from repro.obs.causal import NULL_CAUSAL, CausalTracer, NullCausal, TraceContext
from repro.obs.critpath import (
    CriticalPathReport,
    StageCriticalPath,
    analyze,
    critical_path,
    stage_bounds,
)
from repro.obs.diff import DiffReport, StageDiff, StructuralNode, diff_runs
from repro.obs.flightrec import FlightEvent, FlightIndex, FlightRecorder
from repro.obs.report_html import (
    planner_section,
    render_diff_page,
    render_planner_page,
    render_report,
    write_diff_report,
    write_report,
)
from repro.obs.registry import Counter, MetricsRegistry, MetricsSnapshot
from repro.obs.tracer import chrome_trace, render_timeline, write_chrome_trace
from repro.obs.whatif import (
    DEFAULT_GRID,
    IDENTITY,
    Perturbation,
    Prediction,
    ReplayModel,
    StageRecord,
    TaskRecord,
    load_model,
)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "chrome_trace",
    "write_chrome_trace",
    "render_timeline",
    "CausalTracer",
    "NullCausal",
    "NULL_CAUSAL",
    "TraceContext",
    "FlightEvent",
    "FlightIndex",
    "FlightRecorder",
    "CriticalPathReport",
    "StageCriticalPath",
    "analyze",
    "critical_path",
    "stage_bounds",
    "DiffReport",
    "StageDiff",
    "StructuralNode",
    "diff_runs",
    "planner_section",
    "render_diff_page",
    "render_planner_page",
    "render_report",
    "write_diff_report",
    "write_report",
    "Perturbation",
    "Prediction",
    "ReplayModel",
    "StageRecord",
    "TaskRecord",
    "IDENTITY",
    "DEFAULT_GRID",
    "load_model",
    "polling_tax_seconds",
    "loop_busy_fraction",
    "iprobe_calls",
]


# -- derived report metrics ---------------------------------------------------

def polling_tax_seconds(snap: MetricsSnapshot) -> float:
    """Cumulative CPU seconds burned by selectNow/MPI_Iprobe poll rounds.

    Non-zero only for MPI4Spark-Basic, whose event loops replace the
    blocking ``select`` with a poll cycle (paper Sec VI-D); the
    Optimized design's loops park in ``select`` and never pay it.
    """
    return snap.total("netty.loop.*.poll_tax_s")


def iprobe_calls(snap: MetricsSnapshot) -> float:
    """Total ``MPI_Iprobe`` invocations across all ranks."""
    return snap.total("mpi.rank.*.iprobe_calls")


def loop_busy_fraction(snap: MetricsSnapshot) -> float:
    """Mean busy fraction across event loops over the snapshot window.

    Busy time is everything between a select/poll return and the next
    park — pipeline traversal, blocking continuations, queued tasks, and
    (for Basic) the poll rounds themselves.
    """
    names = snap.names("netty.loop.*.busy_s")
    if not names or snap.elapsed_s <= 0:
        return 0.0
    busy = sum(snap.counters[n] for n in names)
    return busy / (snap.elapsed_s * len(names))
