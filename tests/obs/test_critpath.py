"""Critical-path analysis: synthetic DAG decomposition + the HTML report.

The synthetic tests hand-build a flight log whose segment decomposition
is computable on paper, then check ``analyze`` reproduces it — including
the per-transport classification (matching dwell is poll-tax only under
MPI4Spark-Basic).  The integration tests run a real traced cluster.
"""

from types import SimpleNamespace

import pytest

from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.obs import analyze, critical_path, render_report, write_report
from repro.obs.causal import TraceContext
from repro.obs.critpath import SEGMENTS, CriticalPathReport
from repro.obs.flightrec import FlightRecorder
from repro.spark.deploy import SparkSimCluster


def _stage(report, name):
    """The stage of ``report`` labelled ``name``, or None."""
    return next((s for s in report.stages if s.stage == name), None)


def synthetic_flight() -> FlightRecorder:
    """Two stages; the read stage's critical task has a known chain.

    Read-task chain (trace 1): request span 10 sent 0.1 → received 0.2,
    response span 11 (child of 10) sent 0.25 → received 0.40 after an
    0.03 s matching dwell.  Task fetch wait 0.35, compute 0.05+0.02.
    """
    rec = FlightRecorder()
    t1, t2, t3 = TraceContext(1, 1), TraceContext(2, 2), TraceContext(3, 3)
    req = TraceContext(1, 10, 1)
    resp = TraceContext(1, 11, 10)

    rec.record(0.0, "stage.start", None, stage="Job0-write", n_tasks=1)
    rec.record(0.0, "task.start", t3, task="Job0-write-task0", exec=0)
    rec.record(0.45, "task.finish", t3, task="Job0-write-task0",
               compute_s=0.1, write_s=0.3)
    rec.record(0.45, "stage.finish", None, stage="Job0-write", seconds=0.45)

    rec.record(0.45, "stage.start", None, stage="Job0-read", n_tasks=2)
    rec.record(0.0, "task.start", t1, task="Job0-read-task1", exec=0)
    rec.record(0.0, "task.start", t2, task="Job0-read-task0", exec=1)
    rec.record(0.1, "msg.send", req, type=0, nbytes=32, ch="c0")
    rec.record(0.2, "msg.recv", req, type=0, nbytes=32, ch="c0")
    rec.record(0.25, "msg.send", resp, type=1, nbytes=4096, ch="s0")
    rec.record(0.37, "mpi.match", resp, waited_s=0.03, buffered=True)
    rec.record(0.40, "msg.recv", resp, type=1, nbytes=4096, ch="s0")
    # the non-critical task finishes first
    rec.record(0.45, "task.finish", t2, task="Job0-read-task0",
               fetch_wait_s=0.1, combine_s=0.02)
    rec.record(0.5, "task.finish", t1, task="Job0-read-task1",
               fetch_wait_s=0.35, compute_s=0.05, combine_s=0.02)
    rec.record(0.5, "stage.finish", None, stage="Job0-read", seconds=0.05)
    return rec


class TestSyntheticAnalysis:
    def test_segment_decomposition_under_basic(self):
        report = analyze(synthetic_flight(), "mpi-basic")
        assert [s.stage for s in report.stages] == ["Job0-write", "Job0-read"]
        read = _stage(report, "Job0-read")
        assert read.task == "Job0-read-task1"  # last finisher wins
        assert read.seconds("compute") == pytest.approx(0.07)
        # wire = both legs minus the matching dwell
        assert read.seconds("wire") == pytest.approx((0.2 - 0.1) + (0.15 - 0.03))
        assert read.seconds("queue") == pytest.approx(0.25 - 0.2)
        assert read.seconds("poll-tax") == pytest.approx(0.03)
        # fetch wait not covered by the extracted chain (0.40 - 0.10)
        assert read.seconds("fetch-wait") == pytest.approx(0.35 - 0.30)
        write = _stage(report, "Job0-write")
        assert write.segments == pytest.approx(
            {"compute": 0.1, "serialize": 0.3}
        )

    def test_dwell_is_queue_not_poll_tax_off_basic(self):
        for transport in ("nio", "rdma", "mpi-opt"):
            report = analyze(synthetic_flight(), transport)
            read = _stage(report, "Job0-read")
            assert read.seconds("poll-tax") == 0.0
            assert read.seconds("queue") == pytest.approx(0.05 + 0.03)
            # total is invariant under the classification
            assert report.total_seconds == pytest.approx(
                analyze(synthetic_flight(), "mpi-basic").total_seconds
            )

    def test_classification_follows_the_declared_trait(self):
        # The name resolves to the trait; a name this tree does not know
        # (a recording loaded from disk) is not poll-sensitive, not an error.
        basic = analyze(synthetic_flight(), "mpi-basic")
        assert _stage(basic, "Job0-read").seconds("poll-tax") == pytest.approx(0.03)
        unknown = analyze(synthetic_flight(), "some-future-transport")
        assert _stage(unknown, "Job0-read").seconds("poll-tax") == 0.0

    def test_rollups_and_shares(self):
        report = analyze(synthetic_flight(), "mpi-basic")
        assert report.total_seconds == pytest.approx(0.42 + 0.4)
        assert sum(report.share(seg) for seg in SEGMENTS) == pytest.approx(1.0)
        assert report.share("poll-tax") == pytest.approx(0.03 / 0.82)
        assert _stage(report, "nope") is None

    def test_render_table(self):
        text = analyze(synthetic_flight(), "mpi-basic").render()
        lines = text.splitlines()
        assert lines[0] == "critical path [mpi-basic]"
        for col in ("stage", "crit task", *SEGMENTS, "total"):
            assert col in lines[1]
        assert lines[-1].startswith("TOTAL")

    def test_empty_flight_yields_empty_report(self):
        report = analyze(FlightRecorder(), "nio")
        assert report.stages == []
        assert report.total_seconds == 0.0
        assert report.share("wire") == 0.0


def multi_tenant_flight() -> FlightRecorder:
    """The synthetic DAG plus job-server arrival events for two apps.

    ``app-b`` waits 0.2 s between submission and start, ``app-a`` 0.5 s;
    ``app-c`` starts the instant it is submitted (no pseudo-stage).
    """
    rec = synthetic_flight()
    rec.record(0.0, "job.submit", None, app="app-b")
    rec.record(0.1, "job.submit", None, app="app-a")
    rec.record(0.2, "job.start", None, app="app-b")
    rec.record(0.6, "job.start", None, app="app-a")
    rec.record(0.7, "job.submit", None, app="app-c")
    rec.record(0.7, "job.start", None, app="app-c")
    return rec


class TestRollupAccessors:
    """The report's roll-up surface: shares, per-stage chains, pseudo-stages."""

    def test_sched_wait_pseudo_stages_ordered_by_submission(self):
        report = analyze(multi_tenant_flight(), "mpi-basic")
        pseudo = [s for s in report.stages if s.stage.endswith(":sched-wait")]
        assert [s.stage for s in pseudo] == ["app-b:sched-wait", "app-a:sched-wait"]
        b, a = pseudo
        assert b.segments == {"sched-wait": pytest.approx(0.2)}
        assert a.segments == {"sched-wait": pytest.approx(0.5)}
        assert (b.start_s, b.end_s) == (0.0, 0.2)
        # app-c started instantly: queueing contributed nothing, no row.
        assert _stage(report, "app-c:sched-wait") is None

    def test_sched_wait_rolls_up_like_any_segment(self):
        report = analyze(multi_tenant_flight(), "mpi-basic")
        assert report.segment_seconds("sched-wait") == pytest.approx(0.7)
        base = analyze(synthetic_flight(), "mpi-basic").total_seconds
        assert report.total_seconds == pytest.approx(base + 0.7)
        assert report.share("sched-wait") == pytest.approx(0.7 / (base + 0.7))
        # Shares still partition the whole path, pseudo-stages included.
        assert sum(report.share(seg) for seg in SEGMENTS) == pytest.approx(1.0)

    def test_single_tenant_flight_has_no_sched_wait(self):
        report = analyze(synthetic_flight(), "mpi-basic")
        assert report.segment_seconds("sched-wait") == 0.0
        assert not [s for s in report.stages if "sched-wait" in s.stage]

    def test_per_stage_chain_decomposition_sums_to_stage_total(self):
        report = analyze(multi_tenant_flight(), "mpi-basic")
        for s in report.stages:
            assert s.total_s == pytest.approx(sum(s.segments.values()))
            # seconds() is total over the chain's occurrences of a segment
            # and 0.0 for segments the chain never touched.
            for seg in SEGMENTS:
                assert s.seconds(seg) >= 0.0
            assert s.seconds("no-such-segment") == 0.0
        read = _stage(report, "Job0-read")
        assert read.total_s == pytest.approx(
            sum(read.seconds(seg) for seg in SEGMENTS)
        )

    def test_segment_seconds_is_sum_over_stages(self):
        report = analyze(multi_tenant_flight(), "mpi-basic")
        for seg in SEGMENTS:
            assert report.segment_seconds(seg) == pytest.approx(
                sum(s.seconds(seg) for s in report.stages)
            )


class TestCriticalPathEntryPoint:
    def test_real_run_decomposes(self):
        sim = SparkSimCluster(
            INTERNAL_CLUSTER, 2, "mpi-basic", cores_per_executor=2,
            obs_causal=True,
        )
        sim.launch()
        result = sim.run_profile(make_chaos_profile(2, 2, shuffle_bytes=8 << 20))
        sim.shutdown()
        report = critical_path(result)
        assert report.transport == "mpi-basic"
        assert [s.stage for s in report.stages] == list(result.stage_seconds)
        read = report.stages[-1]
        assert read.seconds("wire") > 0
        assert read.total_s <= result.total_seconds


class TestHtmlReport:
    def _result(self, flight):
        return SimpleNamespace(
            flight=flight,
            transport="mpi-basic",
            workload="GroupByTest",
            system="Internal",
            n_workers=2,
            total_cores=8,
            total_seconds=0.5,
            stage_seconds={"Job0-write": 0.45, "Job0-read": 0.05},
        )

    def test_page_contains_sections(self):
        flight = synthetic_flight()
        page = render_report(
            [(self._result(flight), analyze(flight, "mpi-basic"))],
            title="unit <report>",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "unit &lt;report&gt;" in page  # titles are escaped
        assert "transport: mpi-basic" in page
        assert page.count("<svg") >= 3  # gantt + timeline + share bar
        assert "poll-tax" in page and "message spans" in page

    def test_no_flight_still_renders(self):
        report = CriticalPathReport(transport="nio")
        page = render_report([(self._result(None), report)])
        assert "transport: mpi-basic" in page
        assert "<svg" not in page.split("critical path")[0]

    def test_write_report(self, tmp_path):
        flight = synthetic_flight()
        path = write_report(
            str(tmp_path / "r.html"),
            [(self._result(flight), analyze(flight, "mpi-basic"))],
        )
        assert open(path).read().startswith("<!DOCTYPE html>")
