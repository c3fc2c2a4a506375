"""Chrome-trace and text-timeline exporters over a causal flight recording.

A causally-traced run (``obs_causal=True``) already records every
stage and task interval: the stage loop emits ``stage.start`` /
``stage.finish`` and the task envelope ``task.start`` / ``task.finish``.
These functions read those pairs through :meth:`FlightRecorder.index`
and draw them:

* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev. Stage pairs go on
  track ``driver``, task pairs on ``exec<N>``; one Chrome "thread" per
  track, numbered in first-seen start order; timestamps are microseconds
  of *simulated* time.
* :func:`render_timeline` — the same intervals as Spark-UI-style text
  bars for terminals and test output.

Any recording exports: a live ``RunResult.flight``, a run-cache hit, or a
committed ``baselines/*.jsonl.gz`` read with
:meth:`FlightRecorder.load_jsonl`. A task that started but never finished
ends at the recording's last event and is flagged ``unfinished``; a stage
that never finished has no pair and is not drawn.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.obs.flightrec import FlightRecorder, flight_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.deploy import RunResult


class _Bar(NamedTuple):
    """One interval on one track."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    args: dict[str, Any]


def _bars(flight: "FlightRecorder | RunResult") -> list[_Bar]:
    """Stage and task intervals of ``flight``, in start order.

    ``flight`` is a recorder or anything carrying one as ``.flight`` (a
    :class:`~repro.spark.deploy.RunResult`). Stages sort ahead of tasks
    that start at the same instant, as the stage loop records them.
    """
    recording = flight_of(flight)
    index = recording.index()
    events = recording.events
    last_t = events[-1].t if events else 0.0
    bars = [
        _Bar(label, "stage", "driver", start.t, finish.t,
             {**start.attrs, **finish.attrs})
        for label, start, finish in index.stage_pairs
    ]
    finished = index.task_finish
    for trace, start in index.task_start.items():
        attrs = start.attrs
        finish = finished.get(trace)
        if finish is None:
            end, args = last_t, {**attrs, "unfinished": True}
        else:
            end, args = finish.t, dict(finish.attrs)
        bars.append(_Bar(attrs.get("task", "?"), "task",
                         f"exec{attrs.get('exec', '?')}", start.t, end, args))
    bars.sort(key=lambda bar: bar.start)
    return bars


def _by_track(bars: list[_Bar]) -> dict[str, list[_Bar]]:
    tracks: dict[str, list[_Bar]] = {}
    for bar in bars:
        tracks.setdefault(bar.track, []).append(bar)
    return tracks


def chrome_trace(flight: "FlightRecorder | RunResult") -> dict:
    """Trace Event Format dict of the recording's stages and tasks."""
    bars = _bars(flight)
    tids = {track: i + 1 for i, track in enumerate(_by_track(bars))}
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "repro-sim"}}
    ]
    events += [
        {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
         "args": {"name": track}}
        for track, tid in tids.items()
    ]
    events += [
        {"ph": "X", "pid": 1, "tid": tids[bar.track], "name": bar.name,
         "cat": bar.cat, "ts": bar.start * 1e6,
         "dur": (bar.end - bar.start) * 1e6, "args": bar.args}
        for bar in bars
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(flight: "FlightRecorder | RunResult", path):
    """Write :func:`chrome_trace` as JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(json.dumps(chrome_trace(flight), indent=1, sort_keys=True))
    return path


def render_timeline(flight: "FlightRecorder | RunResult", width: int = 64) -> str:
    """Spark-UI-style text timeline: one bar row per interval, per track."""
    bars = _bars(flight)
    if not bars:
        return "(no spans recorded)"
    tracks = _by_track(bars)
    t_min = min(bar.start for bar in bars)
    t_max = max(bar.end for bar in bars)
    horizon = max(t_max - t_min, 1e-12)
    label_w = min(max(len(f"{bar.track}:{bar.name}") for bar in bars) + 1, 48)
    lines = [
        f"timeline [{t_min:.6f}s .. {t_max:.6f}s] "
        f"({len(bars)} spans, {len(tracks)} tracks)"
    ]
    for track, row in tracks.items():
        for bar in row:
            lo = int((bar.start - t_min) / horizon * width)
            hi = max(int((bar.end - t_min) / horizon * width), lo + 1)
            label = f"{track}:{bar.name}"[: label_w - 1]
            lines.append(
                f"{label:<{label_w}}|{' ' * lo + '#' * (hi - lo):<{width}}| "
                f"{bar.end - bar.start:.6f}s"
            )
    return "\n".join(lines)
