"""Ablation benches over the design choices DESIGN.md calls out."""

from repro.harness.ablation import (
    ablate_in_flight_window,
    ablate_io_threads,
    ablate_poll_period,
)
from repro.harness.report import render_table
from repro.util.units import fmt_bytes, fmt_time


def _render(points, value_fmt=str):
    rows = [
        {
            "parameter": p.parameter,
            "value": value_fmt(p.value),
            "shuffle read": fmt_time(p.shuffle_read_s),
            "total": fmt_time(p.total_s),
        }
        for p in points
    ]
    return render_table(rows, f"Ablation: {points[0].parameter}")


def test_ablate_io_threads():
    points = ablate_io_threads(values=(1, 4, 8))
    print()
    print(_render(points))
    by = {p.value: p.shuffle_read_s for p in points}
    # A single blocked loop serializes sources, but flow-level bandwidth
    # sharing keeps the NIC fed between matches, so the penalty is bounded
    # (observed ~10-40%, not the multiples a FIFO wire model would show).
    assert by[4] <= by[1] * 1.05
    assert max(by.values()) < min(by.values()) * 2.0


def test_ablate_in_flight_window():
    points = ablate_in_flight_window(values=(4 << 20, 48 << 20))
    print()
    print(_render(points, fmt_bytes))
    by = {p.value: p.shuffle_read_s for p in points}
    # A tiny window starves the pipe relative to Spark's 48 MiB default.
    assert by[4 << 20] >= by[48 << 20] * 0.95


def test_ablate_poll_period():
    points = ablate_poll_period(values=(5e-6, 500e-6))
    print()
    print(_render(points, lambda v: fmt_time(v)))
    by = {p.value: p.shuffle_read_s for p in points}
    # Fine-grained polling pays selectNow+iprobe costs every few
    # microseconds — the CPU burn the paper abandoned the Basic design
    # over. Coarser polling drains messages in batches (better shuffle
    # throughput, worse latency). The throughput penalty of the 5us spin
    # must be visible:
    assert by[5e-6] > by[500e-6] * 1.1
