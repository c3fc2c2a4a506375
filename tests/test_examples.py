"""Smoke tests: every shipped example runs end-to-end."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# Examples with no dedicated test below; quickstart.py, mpi4spark_launch.py
# and obs_trace.py each have one with stricter asserts.
FAST_EXAMPLES = [
    "hibench_ml.py",
    pytest.param("jobserver_demo.py", marks=pytest.mark.gate),
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # produced output


def test_quickstart_output_correct(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "'meets': 3" in out
    assert "sorted: [(1, 'a'), (3, 'c'), (7, 'g'), (9, 'i')]" in out


def test_launch_example_shows_fig3_steps(capsys):
    runpy.run_path(str(EXAMPLES / "mpi4spark_launch.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Step A/B" in out
    assert "MPI_Comm_spawn_multiple" in out
    assert "DPM_COMM allgather" in out
    # The parent hands each executor a task over the intercomm and reads
    # back its reply: the example's point-to-point send/recv round trip.
    assert "worker0 <- executor0: done(task-0)" in out
    assert "worker0 <- executor1: done(task-1)" in out


@pytest.mark.gate
def test_obs_trace_example_writes_valid_chrome_trace(capsys):
    import json

    runpy.run_path(str(EXAMPLES / "obs_trace.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "timeline" in out and "Chrome trace" in out
    trace_path = EXAMPLES.parent / "results" / "groupby_trace.json"
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert {"X", "M"} <= {ev["ph"] for ev in events}
    threads = {ev["args"]["name"] for ev in events if ev["name"] == "thread_name"}
    assert "driver" in threads
    assert any(t.startswith("exec") for t in threads), threads
    assert any(ev["ph"] == "X" and ev["cat"] == "task" for ev in events)
