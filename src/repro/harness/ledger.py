"""Perf ledger: append-only history of benchmark payloads, with drift flags.

``results/BENCH_*.json`` files are rewritten on every run, so the perf
trajectory across PRs only exists as git archaeology.  The ledger turns
it into a queryable artifact: every figure-benchmark run appends one
JSONL entry — keyed by the :func:`~repro.harness.runcache.
code_fingerprint` of the source tree that produced it plus a wall-clock
timestamp — and :meth:`PerfLedger.drift` walks the history with a
per-cell EWMA to flag step changes (a cell whose latest value deviates
from its smoothed history by more than ``step_threshold``).

Entry schema (one JSON object per line)::

    {"schema": "repro-ledger/1", "source": "fig:fig9_basic_vs_opt",
     "fingerprint": "<sha256 of src/repro>", "ts": 1754650000.0,
     "units": "seconds", "cells": {"GroupByTest_2w_nio": 41.8}}

The ledger is an observer, never a participant: it does not modify any
``BENCH_*`` payload (byte-identity of the committed results is asserted
by the figure goldens), every write is best-effort (an unwritable ledger
never fails a benchmark), and ``REPRO_LEDGER=0`` disables it entirely.
The default path ``results/ledger.jsonl`` falls under the existing
``results/*.jsonl`` gitignore rule — the ledger is a per-machine /
per-CI-run artifact (uploaded by the ``diff-smoke`` job), not a
committed result.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

LEDGER_SCHEMA = "repro-ledger/1"

# EWMA smoothing weight for the newest observation, and the relative
# deviation from the smoothed history past which a cell is flagged as a
# step change.
DEFAULT_ALPHA = 0.3
DEFAULT_STEP_THRESHOLD = 0.25


def ledger_enabled() -> bool:
    """The ledger records unless ``REPRO_LEDGER=0``."""
    return os.environ.get("REPRO_LEDGER", "1") != "0"


def ledger_path() -> Path:
    """Ledger location (``REPRO_LEDGER_PATH`` overrides)."""
    override = os.environ.get("REPRO_LEDGER_PATH")
    if override:
        return Path(override)
    return Path("results") / "ledger.jsonl"


@dataclass
class DriftPoint:
    """The drift verdict for one cell after the latest observation."""

    cell: str
    value: float
    ewma: float  # smoothed history *before* the latest observation
    rel_dev: float  # value/ewma - 1 (0.0 for a first observation)
    step: bool  # |rel_dev| exceeded the step threshold
    n: int  # observations seen, latest included


class PerfLedger:
    """One append-only JSONL ledger file."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else ledger_path()

    # -- recording ------------------------------------------------------------
    def append(
        self,
        source: str,
        cells: dict[str, float],
        units: str = "",
        fingerprint: str | None = None,
        timestamp: float | None = None,
    ) -> dict[str, Any]:
        """Append one entry; returns it (also when writing was skipped).

        ``source`` names the producing suite (``fig:fig9_...``);
        the fingerprint defaults to the live source tree's, so two
        entries with the same fingerprint compare the same code.
        """
        from repro.harness.runcache import code_fingerprint

        entry = {
            "schema": LEDGER_SCHEMA,
            "source": source,
            "fingerprint": fingerprint or code_fingerprint(),
            "ts": time.time() if timestamp is None else float(timestamp),
            "units": units,
            "cells": {name: float(v) for name, v in cells.items()},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    # -- queries --------------------------------------------------------------
    def entries(self, source: str | None = None) -> list[dict[str, Any]]:
        """All well-formed entries in append order (optionally one source).

        Malformed lines (torn writes, foreign junk) are skipped, never
        fatal — the ledger must stay readable after any crash.
        """
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if (
                    not isinstance(entry, dict)
                    or entry.get("schema") != LEDGER_SCHEMA
                    or not isinstance(entry.get("cells"), dict)
                ):
                    continue
                if source is not None and entry.get("source") != source:
                    continue
                out.append(entry)
        return out

    def drift(
        self,
        source: str,
        alpha: float = DEFAULT_ALPHA,
        step_threshold: float = DEFAULT_STEP_THRESHOLD,
    ) -> dict[str, DriftPoint]:
        """Per-cell EWMA drift over the source's history, latest verdict.

        Walks entries oldest→newest; for each cell the smoothed history
        is ``ewma ← alpha·value + (1−alpha)·ewma`` and an observation is
        a **step change** when it deviates from the pre-update EWMA by
        more than ``step_threshold`` relative.  First observations seed
        the EWMA and are never steps.
        """
        ewma: dict[str, float] = {}
        count: dict[str, int] = {}
        latest: dict[str, DriftPoint] = {}
        for entry in self.entries(source):
            for cell, value in entry["cells"].items():
                n = count.get(cell, 0) + 1
                count[cell] = n
                prior = ewma.get(cell)
                if prior is None or prior == 0.0:
                    rel_dev, step, prior = 0.0, False, float(value)
                else:
                    rel_dev = value / prior - 1.0
                    step = abs(rel_dev) > step_threshold
                latest[cell] = DriftPoint(
                    cell=cell, value=float(value), ewma=prior,
                    rel_dev=rel_dev, step=step, n=n,
                )
                ewma[cell] = alpha * value + (1.0 - alpha) * ewma.get(cell, value)
        return latest

    def flagged(self, source: str, **kwargs: float) -> list[DriftPoint]:
        """Cells whose latest observation is a step change, sorted by |dev|."""
        points = [p for p in self.drift(source, **kwargs).values() if p.step]
        points.sort(key=lambda p: -abs(p.rel_dev))
        return points


# -- payload adapters ---------------------------------------------------------

def figure_cells(payload: dict[str, Any]) -> dict[str, float]:
    """Figure payload → ``{derived cell key: headline seconds}``.

    Handles the two row shapes the benchmarks emit: OHB/HiBench cells
    (``total_seconds`` keyed by workload/workers/transport) and
    job-server rows (``mean_jct_s`` keyed by scheduler/transport).
    Payloads without per-row timings (e.g. fig8's latency curves) yield
    ``{}`` and are simply not ledgered.
    """
    rows = payload.get("cells") or payload.get("rows") or []
    out: dict[str, float] = {}
    for row in rows:
        if not isinstance(row, dict):
            continue
        if "total_seconds" in row:
            value = row["total_seconds"]
        elif "mean_jct_s" in row:
            value = row["mean_jct_s"]
        else:
            continue
        bits = [
            str(row[k])
            for k in ("workload", "system", "scheduler")
            if row.get(k) is not None
        ]
        if row.get("n_workers") is not None:
            bits.append(f"{row['n_workers']}w")
        if row.get("transport") is not None:
            bits.append(str(row["transport"]))
        key = "_".join(bits) or f"row{len(out)}"
        out[key] = float(value)
    return out


def record_figure(figure: str, payload: dict[str, Any]) -> dict[str, Any] | None:
    """Ledger one figure payload (no-op when disabled or shapeless)."""
    if not ledger_enabled():
        return None
    cells = figure_cells(payload)
    if not cells:
        return None
    try:
        return PerfLedger().append(f"fig:{figure}", cells, units="seconds")
    except OSError:
        return None
