"""Chrome-trace and text-timeline export over hand-built flight recordings."""

import json

import pytest

from repro.harness.blame import BLAME_TRANSPORTS, baseline_path
from repro.obs.causal import TraceContext
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracer import chrome_trace, render_timeline, write_chrome_trace

from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _task(rec, t, name, trace, **attrs):
    rec.record(t, name, TraceContext(trace, trace), **attrs)


def _flight(finish_all=True):
    """Stage ``s0`` with two tasks; the one on exec1 starts first.

    With ``finish_all=False`` the second task and the stage never finish,
    and a later event ends the recording at t=3.0.
    """
    rec = FlightRecorder()
    rec.record(0.0, "stage.start", stage="s0", n_tasks=2)
    _task(rec, 0.25, "task.start", 1, task="s0-task0", exec=1)
    _task(rec, 0.5, "task.start", 2, task="s0-task1", exec=0)
    _task(rec, 1.25, "task.finish", 1, task="s0-task0", exec=1, compute_s=1.0)
    if finish_all:
        _task(rec, 1.5, "task.finish", 2, task="s0-task1", exec=0, compute_s=1.0)
        rec.record(2.0, "stage.finish", stage="s0", seconds=2.0)
    else:
        rec.record(3.0, "run.end", closed=0)
    return rec


def _spans(trace):
    return {ev["name"]: ev for ev in trace["traceEvents"] if ev["ph"] == "X"}


class TestSpans:
    def test_span_records_sim_interval(self):
        task = _spans(chrome_trace(_flight()))["s0-task0"]
        assert task["cat"] == "task"
        assert task["ts"] == 0.25e6  # microseconds of simulated time
        assert task["dur"] == 1e6

    def test_nested_spans_on_tracks(self):
        trace = chrome_trace(_flight())
        names = {
            ev["tid"]: ev["args"]["name"]
            for ev in trace["traceEvents"] if ev["name"] == "thread_name"
        }
        spans = _spans(trace)
        assert names[spans["s0"]["tid"]] == "driver"
        assert names[spans["s0-task0"]["tid"]] == "exec1"
        assert names[spans["s0-task1"]["tid"]] == "exec0"
        stage = spans["s0"]
        for task in (spans["s0-task0"], spans["s0-task1"]):
            assert stage["ts"] <= task["ts"]
            assert task["ts"] + task["dur"] <= stage["ts"] + stage["dur"]

    def test_annotate_merges_args(self):
        spans = _spans(chrome_trace(_flight()))
        # a task carries its finish attrs; a stage merges start and finish
        assert spans["s0-task0"]["args"] == {
            "task": "s0-task0", "exec": 1, "compute_s": 1.0
        }
        assert spans["s0"]["args"] == {"stage": "s0", "n_tasks": 2, "seconds": 2.0}


class TestChromeExport:
    def test_event_shapes(self):
        trace = chrome_trace(_flight())
        meta = [ev for ev in trace["traceEvents"] if ev["ph"] == "M"]
        assert meta[0] == {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "repro-sim"},
        }
        # one tid per track, numbered in first-seen start order
        assert [(ev["tid"], ev["args"]["name"]) for ev in meta[1:]] == [
            (1, "driver"), (2, "exec1"), (3, "exec0")
        ]
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert [ev["name"] for ev in spans] == ["s0", "s0-task0", "s0-task1"]
        assert {ev["ph"] for ev in trace["traceEvents"]} == {"M", "X"}
        assert trace["displayTimeUnit"] == "ms"

    def test_open_span_closed_at_export_and_flagged(self):
        spans = _spans(chrome_trace(_flight(finish_all=False)))
        assert "s0" not in spans  # a stage that never finished has no pair
        still_open = spans["s0-task1"]
        assert still_open["dur"] == 2.5e6  # ends at the last event, t=3.0
        assert still_open["args"]["unfinished"] is True
        assert "unfinished" not in spans["s0-task0"]["args"]

    def test_empty_recording(self):
        trace = chrome_trace(FlightRecorder())
        assert [ev["name"] for ev in trace["traceEvents"]] == ["process_name"]

    def test_valid_json_roundtrip(self):
        rec = _flight()
        trace = chrome_trace(rec)
        assert json.loads(json.dumps(trace)) == trace
        # a recording's JSONL export exports to the same trace
        assert chrome_trace(FlightRecorder.from_jsonl(rec.to_jsonl())) == trace

    def test_write_creates_loadable_file(self, tmp_path):
        path = write_chrome_trace(_flight(), tmp_path / "trace.json")
        assert json.loads(path.read_text()) == chrome_trace(_flight())

    @pytest.mark.parametrize("transport", BLAME_TRANSPORTS)
    def test_committed_baseline_exports_every_stage_and_task(self, transport):
        flight = FlightRecorder.load_jsonl(str(baseline_path(transport, REPO / "baselines")))
        index = flight.index()
        spans = [ev for ev in chrome_trace(flight)["traceEvents"] if ev["ph"] == "X"]
        assert len(spans) == len(index.task_finish) + len(index.stage_pairs)
        assert not any(ev["args"].get("unfinished") for ev in spans)


class TestTimeline:
    def test_empty(self):
        assert "no spans" in render_timeline(FlightRecorder())

    def test_renders_bar_per_span(self):
        assert render_timeline(_flight(), width=20).splitlines() == [
            "timeline [0.000000s .. 2.000000s] (3 spans, 3 tracks)",
            "driver:s0      |####################| 2.000000s",
            "exec1:s0-task0 |  ##########        | 1.000000s",
            "exec0:s0-task1 |     ##########     | 1.000000s",
        ]
