"""Fig 9 follow-on — MPI4Spark-Optimized vs the collective shuffle plan.

The Optimized design already owns the wire (Sec. V-B); what is left of
its shuffle read is protocol: open-blocks RPCs, per-chunk request/
response turnaround, server-side queueing, in-flight-window stalls. The
collective transport replaces all of it with one alltoallv per stage
boundary, so on the fig9 GroupBy cell the critical-path *fetch-wait* and
*queue* segments — and only those — must collapse.

The claims, causally grounded:
  * critical-path fetch-wait+queue drops by >= 30% vs mpi-opt;
  * ``diff_runs(opt, coll)`` attributes the wall-clock delta to those
    segments and its sum identity (``check()``) holds;
  * the committed golden rows reproduce bit-exactly.
"""

import json
import math
import pathlib

import pytest

from benchmarks.conftest import OHB_FIDELITY, ohb_payload, write_bench_json
from repro.obs import critical_path, diff_runs
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

TRANSPORTS = ("mpi-opt", "mpi-coll")


@pytest.fixture(scope="module")
def cells(jobs):
    """Causally-traced fig9 GroupBy cells, one per transport."""
    from repro.harness.parallel import run_ohb_cells
    from repro.harness.systems import FRONTERA

    specs = [
        (GROUP_BY.name, 2, 28 * GiB, transport, OHB_FIDELITY, FRONTERA.name, True)
        for transport in TRANSPORTS
    ]
    return run_ohb_cells(specs, jobs)


def _by(cells, transport):
    return next(c for c in cells if c.transport == transport)


def _fetch_wait_plus_queue(cell) -> float:
    report = critical_path(cell.result)
    return report.segment_seconds("fetch-wait") + report.segment_seconds("queue")


class TestCollectiveShape:
    def test_collective_beats_optimized(self, cells):
        opt = _by(cells, "mpi-opt")
        coll = _by(cells, "mpi-coll")
        assert coll.total_seconds < opt.total_seconds

    def test_fetch_wait_plus_queue_drops_30_percent(self, cells):
        # The headline acceptance claim: the collective plan removes the
        # per-block protocol from the critical path.
        opt = _fetch_wait_plus_queue(_by(cells, "mpi-opt"))
        coll = _fetch_wait_plus_queue(_by(cells, "mpi-coll"))
        assert opt > 0
        assert coll <= 0.7 * opt, f"opt={opt:.4f}s coll={coll:.4f}s"

    def test_collective_collapses_wire_messages(self, cells):
        # The host-cost side of the same design, as a deterministic
        # counter: one alltoallv per stage boundary moves the same shuffle
        # bytes in >= 10x fewer wire messages than per-block ChunkFetch
        # (7,627 vs 24 on the two worker links), which is why the cell
        # dispatches ~64x fewer kernel events (49,590 vs 775).
        opt = _by(cells, "mpi-opt").result.metrics
        coll = _by(cells, "mpi-coll").result.metrics
        fetched = "spark.scheduler.remote_fetch_bytes"
        assert coll.value(fetched) == pytest.approx(opt.value(fetched), rel=1e-6)
        sent = "simnet.link.*.tx_messages"
        assert 0 < 10 * coll.total(sent) <= opt.total(sent)

    def test_flight_logs_complete(self, cells):
        for c in cells:
            flight = c.result.flight
            assert flight is not None and flight.dropped == 0
            assert flight.open_spans() == []


class TestOptVsCollBlame:
    def test_diff_attributes_delta_to_fetch_segments(self, cells):
        diff = diff_runs(
            _by(cells, "mpi-opt").result, _by(cells, "mpi-coll").result,
            a_label="mpi-opt", b_label="mpi-coll",
        )
        diff.check()  # the sum identity, to float precision
        assert diff.wall_delta_s < 0  # coll is faster
        total = math.fsum(d for _, _, d in diff.contributions())
        assert total == pytest.approx(diff.wall_delta_s, abs=1e-9)
        # The blame lands on the protocol segments the collective removed.
        assert diff.top_contributor() == "fetch-wait", diff.render()
        fetch_side = diff.segment_delta("fetch-wait") + diff.segment_delta("queue")
        assert fetch_side < 0
        assert abs(fetch_side) >= 0.8 * abs(diff.wall_delta_s), diff.render()

    def test_self_diff_is_identity(self, cells):
        result = _by(cells, "mpi-coll").result
        diff = diff_runs(result, result)
        assert diff.is_identity(), diff.render()
        diff.check()


def test_rows_match_committed_goldens(cells):
    """Same-seed reruns of this figure must reproduce the committed rows
    bit-exactly (the determinism contract every figure honours)."""
    golden_path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "results"
        / "BENCH_fig9_opt_vs_coll.json"
    )
    golden = {
        r["transport"]: r
        for r in json.loads(golden_path.read_text())["cells"]
    }
    assert set(golden) == set(TRANSPORTS)
    for c in cells:
        row = golden[c.transport]
        assert c.total_seconds == row["total_seconds"]
        assert dict(c.result.stage_seconds) == row["stage_seconds"]


def test_bench_json(cells):
    opt = _fetch_wait_plus_queue(_by(cells, "mpi-opt"))
    coll = _fetch_wait_plus_queue(_by(cells, "mpi-coll"))
    diff = diff_runs(
        _by(cells, "mpi-opt").result, _by(cells, "mpi-coll").result,
        a_label="mpi-opt", b_label="mpi-coll",
    )
    payload = ohb_payload(cells)
    payload["critpath"] = {
        "fetch_wait_plus_queue_s": {"mpi-opt": opt, "mpi-coll": coll},
        "reduction": 1.0 - coll / opt,
    }
    payload["diff"] = diff.as_dict()
    path = write_bench_json("fig9_opt_vs_coll", payload)
    saved = json.loads(path.read_text())
    assert saved["critpath"]["reduction"] >= 0.3
