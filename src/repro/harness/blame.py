"""Blame reports: diff the live tree against a committed baseline recording.

When a golden row or a simulated-time gate moves, CI should explain
*why*, not just that. For each transport a small causal proxy cell — the
obs_report.py GroupBy shape, cheap enough to re-record in any CI job —
has a committed baseline recording under ``baselines/``;
:func:`blame_report` re-records it on the current tree, diffs the two
flight logs with ``repro.obs.diff`` and writes the HTML blame page.
``examples/run_diff.py`` writes all three; ``benchmarks/test_diff.py``
checks that each self-diffs to the zero identity.

This is a *simulated*-time instrument. A host-side slowdown (slower
machine, interpreter regression) does not move simulated time, so its
diff is the zero identity; host time is measured by ``bench/run.py`` and
nowhere else. A behavior change (code edit, knob, injected slowdown)
shows up as named segment deltas. An injected slowdown is a changed
:class:`~repro.simnet.interconnect.CostModel` the proxy cell is built
with; nothing is patched.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.harness.parallel import OhbSpec, run_cell, run_cells
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.util.units import GiB

# Where the committed baseline recordings live. Deliberately *not* under
# results/ — results/ holds regenerated outputs, baselines/ holds
# committed references (see the canonical-results policy in .gitignore).
BLAME_BASELINE_DIR = Path("baselines")

# The blame proxy cell per transport: the examples/obs_report.py GroupBy
# shape (2 workers, 4 GiB, fidelity 0.1) as an OhbSpec with causal
# recording on. Simulated time is seeded and deterministic, so the
# recording is byte-identical across machines — what makes a *committed*
# baseline meaningful.
BLAME_TRANSPORTS = ("nio", "mpi-basic", "mpi-opt")


def blame_spec(transport: str, cost: CostModel = DEFAULT_COST) -> OhbSpec:
    """The blame proxy cell for ``transport``, run under ``cost``."""
    return OhbSpec("GroupByTest", 2, 4 * GiB, transport, 0.1, "Frontera", True, cost=cost)


def baseline_path(transport: str, directory: Path | None = None) -> Path:
    """Committed baseline recording path for one transport's proxy cell."""
    directory = BLAME_BASELINE_DIR if directory is None else Path(directory)
    return directory / f"blame_groupby_2w_{transport}.jsonl.gz"


def record_cell_flight(transport: str, inject: tuple[str, float] | None = None):
    """Record the proxy cell's flight log on the live tree.

    ``inject`` = ``(segment, factor)`` runs the cell under a cost model
    with one modeled cost slowed down by ``factor``, so a blame report
    must name that segment: ``serialize`` (ramdisk shuffle-write
    bandwidth) or ``poll-tax`` (Basic's busy-poll interference tax),
    anything else is a ``ValueError``; ``None`` injects nothing. The model
    is part of the spec, so injected and clean runs can never serve each
    other's cached results. Returns the RunResult.
    """
    cost = DEFAULT_COST
    if inject is not None:
        segment, factor = inject
        if segment == "serialize":
            cost = replace(cost, ramdisk_write_Bps=cost.ramdisk_write_Bps / factor)
        elif segment == "poll-tax":
            # Scale the compute-inflation excess over 1.0. The diff engine
            # re-splits inflated compute into pure compute + poll-tax from
            # each side's recorded inflation, so this lands squarely in
            # the poll-tax bucket.
            inflation = 1.0 + (cost.basic_compute_inflation - 1.0) * factor
            cost = replace(cost, basic_compute_inflation=inflation)
        else:
            raise ValueError(
                f"inject segment {segment!r}: must be 'serialize' or 'poll-tax'"
            )
    return run_cell(blame_spec(transport, cost)).result


def record_blame_baselines(
    directory: Path | None = None, jobs: int | None = None
) -> list[Path]:
    """(Re)record the committed baseline recordings, one per transport.

    Run via ``examples/run_diff.py --record-baselines`` after a change
    that intentionally moves simulated time; ``benchmarks/test_diff.py``
    fails if a stale baseline no longer self-diffs to zero.
    """
    directory = BLAME_BASELINE_DIR if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cells = run_cells([blame_spec(t) for t in BLAME_TRANSPORTS], jobs)
    return [
        Path(cell.result.flight.write(str(baseline_path(transport, directory))))
        for transport, cell in zip(BLAME_TRANSPORTS, cells)
    ]


def blame_report(
    transport: str,
    out_dir: Path | str = "results",
    baseline_dir: Path | None = None,
    inject: tuple[str, float] | None = None,
):
    """Diff the live tree's proxy cell against its committed baseline.

    Returns ``(DiffReport, html_path)``; CI uploads the page with the
    rest of ``results/``. ``inject`` is passed through to
    :func:`record_cell_flight`.
    """
    from repro.obs.diff import diff_runs
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.report_html import write_diff_report

    path = baseline_path(transport, baseline_dir)
    baseline = FlightRecorder.load_jsonl(str(path))
    current = record_cell_flight(transport, inject=inject)
    diff = diff_runs(
        baseline,
        current,
        a_label="baseline",
        b_label="current",
        transport_a=transport,
    )
    diff.check()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    html = write_diff_report(
        str(out_dir / f"blame_groupby_2w_{transport}.html"),
        diff,
        baseline,
        current.flight,
        title=f"blame report: GroupByTest proxy cell [{transport}]",
    )
    return diff, html
