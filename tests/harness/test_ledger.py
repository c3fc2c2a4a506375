"""Perf ledger: append-only history, EWMA drift flags, payload adapters."""

import json

import pytest

from repro.harness import ledger
from repro.harness.ledger import (
    DEFAULT_STEP_THRESHOLD,
    LEDGER_SCHEMA,
    DriftPoint,
    PerfLedger,
    figure_cells,
)


@pytest.fixture
def book(tmp_path):
    return PerfLedger(tmp_path / "ledger.jsonl")


class TestAppendAndEntries:
    def test_round_trip(self, book):
        entry = book.append("perf", {"cell_a": 100.0, "cell_b": 2.5},
                            units="seconds", fingerprint="f1",
                            timestamp=1000.0)
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["fingerprint"] == "f1"
        (got,) = book.entries()
        assert got == entry
        assert got["cells"] == {"cell_a": 100.0, "cell_b": 2.5}

    def test_append_only_preserves_order(self, book):
        for i in range(3):
            book.append("perf", {"c": float(i)}, fingerprint="f",
                        timestamp=float(i))
        assert [e["cells"]["c"] for e in book.entries()] == [0.0, 1.0, 2.0]

    def test_source_filter(self, book):
        book.append("perf", {"c": 1.0}, fingerprint="f", timestamp=0.0)
        book.append("fig:fig9", {"c": 2.0}, fingerprint="f", timestamp=1.0)
        assert len(book.entries()) == 2
        assert [e["source"] for e in book.entries("perf")] == ["perf"]

    def test_default_fingerprint_is_live_tree(self, book):
        from repro.harness.runcache import code_fingerprint

        entry = book.append("perf", {"c": 1.0}, timestamp=0.0)
        assert entry["fingerprint"] == code_fingerprint()

    def test_missing_file_reads_empty(self, book):
        assert book.entries() == []

    def test_malformed_lines_are_skipped_never_fatal(self, book):
        book.append("perf", {"c": 1.0}, fingerprint="f", timestamp=0.0)
        with open(book.path, "a") as fh:
            fh.write("{torn json\n")          # crash mid-write
            fh.write("[1, 2, 3]\n")            # not an object
            fh.write('{"schema": "other/9"}\n')  # foreign schema
            fh.write(json.dumps({"schema": LEDGER_SCHEMA, "cells": 7}) + "\n")
            fh.write("\n")
        book.append("perf", {"c": 2.0}, fingerprint="f", timestamp=1.0)
        assert [e["cells"]["c"] for e in book.entries()] == [1.0, 2.0]


class TestDrift:
    def seed(self, book, values, cell="c"):
        for i, v in enumerate(values):
            book.append("perf", {cell: v}, fingerprint="f", timestamp=float(i))

    def test_first_observation_seeds_never_steps(self, book):
        self.seed(book, [100.0])
        point = book.drift("perf")["c"]
        assert point == DriftPoint("c", 100.0, 100.0, 0.0, False, 1)

    def test_stable_history_no_flags(self, book):
        self.seed(book, [100.0, 101.0, 99.0, 100.5])
        point = book.drift("perf")["c"]
        assert not point.step
        assert point.n == 4
        assert book.flagged("perf") == []

    def test_step_change_flagged_against_smoothed_history(self, book):
        self.seed(book, [100.0, 100.0, 100.0, 60.0])  # 40% drop
        point = book.drift("perf")["c"]
        assert point.step
        assert point.value == 60.0
        assert point.ewma == pytest.approx(100.0)
        assert point.rel_dev == pytest.approx(-0.4)
        assert [p.cell for p in book.flagged("perf")] == ["c"]

    def test_threshold_is_relative_deviation(self, book):
        # just inside vs just outside DEFAULT_STEP_THRESHOLD (0.25)
        self.seed(book, [100.0, 100.0 * (1 + DEFAULT_STEP_THRESHOLD - 0.01)])
        assert not book.drift("perf")["c"].step
        book2 = PerfLedger(book.path.with_name("l2.jsonl"))
        self.seed(book2, [100.0, 100.0 * (1 + DEFAULT_STEP_THRESHOLD + 0.01)])
        assert book2.drift("perf")["c"].step

    def test_ewma_recovers_after_accepted_shift(self, book):
        # a real perf improvement stops flagging once history absorbs it
        self.seed(book, [100.0, 200.0, 200.0, 200.0, 200.0, 200.0, 200.0])
        assert not book.drift("perf")["c"].step

    def test_cells_tracked_independently(self, book):
        book.append("perf", {"a": 100.0, "b": 1.0}, fingerprint="f",
                    timestamp=0.0)
        book.append("perf", {"a": 100.0, "b": 10.0}, fingerprint="f",
                    timestamp=1.0)
        points = book.drift("perf")
        assert not points["a"].step
        assert points["b"].step

    def test_flagged_sorted_by_deviation(self, book):
        book.append("perf", {"a": 100.0, "b": 100.0}, fingerprint="f",
                    timestamp=0.0)
        book.append("perf", {"a": 50.0, "b": 10.0}, fingerprint="f",
                    timestamp=1.0)
        assert [p.cell for p in book.flagged("perf")] == ["b", "a"]


class TestAdapters:
    def test_figure_cells_ohb_rows(self):
        payload = {"cells": [
            {"workload": "GroupByTest", "n_workers": 2, "transport": "nio",
             "total_seconds": 1.5},
        ]}
        assert figure_cells(payload) == {"GroupByTest_2w_nio": 1.5}

    def test_figure_cells_jobserver_rows(self):
        payload = {"rows": [
            {"scheduler": "fifo", "transport": "mpi-opt", "mean_jct_s": 3.25},
        ]}
        assert figure_cells(payload) == {"fifo_mpi-opt": 3.25}

    def test_shapeless_payload_yields_nothing(self):
        # fig8 emits latency curves, not rows — it is simply not ledgered
        assert figure_cells({"curves": {"nio": [1, 2]}}) == {}
        assert figure_cells({"cells": [{"transport": "nio"}]}) == {}
        assert figure_cells({"cells": ["junk"]}) == {}


class TestRecordingHooks:
    FIG = {"cells": [{"workload": "w", "n_workers": 2, "transport": "nio",
                      "total_seconds": 1.0}]}

    def test_record_perf_appends_to_env_path(self, tmp_path, monkeypatch):
        path = tmp_path / "custom.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        entry = ledger.record_figure("f", self.FIG)
        assert entry is not None and entry["source"] == "fig:f"
        assert PerfLedger(path).entries()[0]["cells"] == {"w_2w_nio": 1.0}

    def test_record_figure_appends_with_fig_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "l.jsonl"))
        entry = ledger.record_figure("fig9_groupby", self.FIG)
        assert entry["source"] == "fig:fig9_groupby"
        assert entry["units"] == "seconds"

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert not ledger.ledger_enabled()
        assert ledger.record_figure("f", self.FIG) is None
        assert not path.exists()

    def test_empty_cells_not_recorded(self, tmp_path, monkeypatch):
        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert ledger.record_figure("fig8", {"curves": {}}) is None
        assert not path.exists()

    def test_unwritable_ledger_never_raises(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_LEDGER_PATH", "/proc/definitely/not/writable/l.jsonl"
        )
        assert ledger.record_figure("f", self.FIG) is None
