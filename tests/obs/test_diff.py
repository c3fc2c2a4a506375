"""Differential run analysis: synthetic A/B diffs with paper-computable blame.

Hand-built flight logs (the ``test_critpath`` idiom) make every
attribution term computable by hand; the tests pin the three contracts
the engine rests on: self-diff identity, the residual sum identity, and
structural mismatches as first-class nodes. Real-cluster diffs live in
``benchmarks/test_diff.py``.
"""

import math

import pytest

from repro.obs import diff_runs
from repro.obs.causal import TraceContext
from repro.obs.critpath import SEGMENTS
from repro.obs.diff import IDENTITY_TOL, STRUCTURAL_KINDS, DiffReport, StructuralNode
from repro.obs.flightrec import FlightRecorder


def build_flight(
    read_end: float = 0.5,
    compute_s: float = 0.05,
    meta: dict | None = None,
    read_tasks: int = 2,
    extra_stage: bool = False,
) -> FlightRecorder:
    """The ``test_critpath`` synthetic DAG, parameterized for A/B pairs.

    Two stages: ``Job0-write`` wall 0.45 (fixed), ``Job0-read`` wall
    ``read_end − 0.45`` whose critical task records ``compute_s``.
    """
    rec = FlightRecorder()
    if meta is not None:
        rec.record(0.0, "run.meta", None, **meta)
    t1, t2, t3 = TraceContext(1, 1), TraceContext(2, 2), TraceContext(3, 3)
    req = TraceContext(1, 10, 1)
    resp = TraceContext(1, 11, 10)

    rec.record(0.0, "stage.start", None, stage="Job0-write", n_tasks=1)
    rec.record(0.0, "task.start", t3, task="Job0-write-task0", exec=0)
    rec.record(0.45, "task.finish", t3, task="Job0-write-task0",
               compute_s=0.1, write_s=0.3)
    rec.record(0.45, "stage.finish", None, stage="Job0-write", seconds=0.45)

    rec.record(0.45, "stage.start", None, stage="Job0-read", n_tasks=read_tasks)
    rec.record(0.0, "task.start", t1, task="Job0-read-task1", exec=0)
    rec.record(0.0, "task.start", t2, task="Job0-read-task0", exec=1)
    rec.record(0.1, "msg.send", req, type=0, nbytes=32, ch="c0")
    rec.record(0.2, "msg.recv", req, type=0, nbytes=32, ch="c0")
    rec.record(0.25, "msg.send", resp, type=1, nbytes=4096, ch="s0")
    rec.record(0.37, "mpi.match", resp, waited_s=0.03, buffered=True)
    rec.record(0.40, "msg.recv", resp, type=1, nbytes=4096, ch="s0")
    rec.record(0.45, "task.finish", t2, task="Job0-read-task0",
               fetch_wait_s=0.1, combine_s=0.02)
    rec.record(0.5, "task.finish", t1, task="Job0-read-task1",
               fetch_wait_s=0.35, compute_s=compute_s, combine_s=0.02)
    rec.record(read_end, "stage.finish", None, stage="Job0-read",
               seconds=read_end - 0.45)
    if extra_stage:
        rec.record(read_end, "stage.start", None, stage="Job2-extra", n_tasks=1)
        rec.record(read_end + 0.25, "stage.finish", None, stage="Job2-extra",
                   seconds=0.25)
    return rec


BASIC = dict(transport_a="mpi-basic", transport_b="mpi-basic")


class TestSelfDiffIdentity:
    def test_same_recording_is_exact_zero(self):
        rec = build_flight()
        diff = diff_runs(rec, rec, **BASIC)
        assert diff.is_identity()
        assert diff.wall_delta_s == 0.0
        assert diff.residual_s == 0.0
        assert diff.structural == []
        assert all(diff.segment_delta(seg) == 0.0 for seg in SEGMENTS)
        assert diff.contributions() == []
        assert diff.top_contributor() is None
        diff.check()  # must not raise
        assert "identical runs" in diff.render()

    def test_identity_holds_per_transport_classification(self):
        # dwell classifies as poll-tax only under basic; identity must
        # hold under every classification, not just one.
        for transport in ("nio", "rdma", "mpi-basic", "mpi-opt"):
            rec = build_flight()
            diff = diff_runs(rec, rec, transport_a=transport,
                             transport_b=transport)
            assert diff.is_identity(), transport

    def test_equal_rebuilt_recordings_are_identity(self):
        # Not the same object: two independently built, equal recordings.
        diff = diff_runs(build_flight(), build_flight(), **BASIC)
        assert diff.is_identity()


class TestResidualContract:
    def test_attributions_sum_to_measured_delta(self):
        a = build_flight(read_end=0.5, compute_s=0.05)
        b = build_flight(read_end=0.6, compute_s=0.09)
        diff = diff_runs(a, b, **BASIC)
        # read wall grew 0.1; instrumented compute grew only 0.04 — the
        # uninstrumented 0.06 must land in the residual, not vanish.
        assert diff.wall_delta_s == pytest.approx(0.1)
        assert diff.segment_delta("compute") == pytest.approx(0.04)
        assert diff.residual_s == pytest.approx(0.06)
        diff.check()
        read = next(s for s in diff.stages if s.stage == "Job0-read")
        assert read.delta_s == pytest.approx(0.1)
        assert read.residual_s == pytest.approx(
            read.delta_s - math.fsum(
                read.segment_delta(seg) for seg in read.segments
            )
        )

    def test_check_raises_on_manufactured_leak(self):
        diff = diff_runs(build_flight(), build_flight(read_end=0.6), **BASIC)
        diff.check()
        # breaking a residual by more than the tolerance must be caught
        diff.stages[-1].residual_s += 1000 * IDENTITY_TOL
        with pytest.raises(AssertionError, match="attribution leak"):
            diff.check()

    def test_direction_is_b_minus_a(self):
        fast, slow = build_flight(read_end=0.5), build_flight(read_end=0.7)
        assert diff_runs(fast, slow, **BASIC).wall_delta_s > 0
        assert diff_runs(slow, fast, **BASIC).wall_delta_s < 0


class TestInflationResplit:
    META = dict(transport="mpi-basic", workload="GroupByTest")

    def test_inflated_compute_is_charged_to_poll_tax(self):
        a = build_flight(meta=dict(self.META, compute_inflation=1.0))
        b = build_flight(meta=dict(self.META, compute_inflation=1.3))
        diff = diff_runs(a, b)  # transports come from run.meta
        assert diff.transport_a == diff.transport_b == "mpi-basic"
        # identical events: zero wall delta, but B's recorded compute
        # (0.07 read + 0.1 write) is 30% busy-poll interference — the
        # re-split moves exactly that tax from compute to poll-tax,
        # summing to zero.
        tax = 0.17 - 0.17 / 1.3
        assert diff.wall_delta_s == 0.0
        assert diff.segment_delta("compute") == pytest.approx(-tax)
        assert diff.segment_delta("poll-tax") == pytest.approx(tax)
        assert diff.residual_s == pytest.approx(0.0)
        diff.check()

    def test_same_inflation_both_sides_is_identity(self):
        a = build_flight(meta=dict(self.META, compute_inflation=1.3))
        b = build_flight(meta=dict(self.META, compute_inflation=1.3))
        assert diff_runs(a, b).is_identity()


class TestStructuralNodes:
    def test_stage_added_and_removed_carry_their_walls(self):
        plain, extra = build_flight(), build_flight(extra_stage=True)
        diff = diff_runs(plain, extra, **BASIC)
        assert [n.kind for n in diff.structural] == ["stage-added"]
        node = diff.structural[0]
        assert node.stage == "Job2-extra"
        assert node.delta_s == pytest.approx(0.25)
        assert diff.wall_delta_s == pytest.approx(0.25)
        diff.check()
        assert not diff.is_identity()

        back = diff_runs(extra, plain, **BASIC)
        assert [n.kind for n in back.structural] == ["stage-removed"]
        assert back.structural[0].delta_s == pytest.approx(-0.25)
        assert back.wall_delta_s == pytest.approx(-0.25)
        back.check()

    def test_task_count_drift_is_annotated_not_charged(self):
        diff = diff_runs(build_flight(read_tasks=2),
                         build_flight(read_tasks=4), **BASIC)
        read = next(s for s in diff.stages if s.stage == "Job0-read")
        assert [n.kind for n in read.nodes] == ["task-count"]
        assert read.nodes[0].delta_s == 0.0  # annotation, not a charge
        assert "2 -> 4" in read.nodes[0].detail
        assert diff.wall_delta_s == 0.0  # same walls; nodes don't leak time
        diff.check()
        assert not diff.is_identity()

    def test_wave_repack_detected_from_slot_geometry(self):
        meta_a = dict(transport="mpi-basic", n_workers=1, slots_per_executor=1)
        meta_b = dict(transport="mpi-basic", n_workers=1, slots_per_executor=2)
        diff = diff_runs(build_flight(meta=meta_a), build_flight(meta=meta_b))
        read = next(s for s in diff.stages if s.stage == "Job0-read")
        # 2 tasks: 2 waves on 1 slot, 1 wave on 2 slots
        assert [n.kind for n in read.nodes] == ["wave-repack"]
        assert "2 -> 1" in read.nodes[0].detail
        assert diff.meta_mismatches()["slots_per_executor"] == (1, 2)

    def test_all_kinds_are_known(self):
        assert set(STRUCTURAL_KINDS) == {
            "stage-added", "stage-removed", "task-count", "wave-repack",
        }


class TestSchedWaitPseudoStages:
    def test_new_queueing_shows_as_added_pseudo_stages(self):
        plain = build_flight()
        tenant = build_flight()
        tenant.record(0.0, "job.submit", None, app="app-b")
        tenant.record(0.2, "job.start", None, app="app-b")
        tenant.record(0.1, "job.submit", None, app="app-a")
        tenant.record(0.6, "job.start", None, app="app-a")
        diff = diff_runs(plain, tenant, **BASIC)
        added = {n.stage: n.delta_s for n in diff.structural
                 if n.kind == "stage-added"}
        assert added == {
            "app-b:sched-wait": pytest.approx(0.2),
            "app-a:sched-wait": pytest.approx(0.5),
        }
        assert diff.wall_delta_s == pytest.approx(0.7)
        diff.check()


class TestApiSurface:
    def test_requires_a_transport_from_somewhere(self):
        with pytest.raises(ValueError, match="transport unknown"):
            diff_runs(build_flight(), build_flight())

    def test_render_and_as_dict(self):
        diff = diff_runs(build_flight(), build_flight(read_end=0.6,
                                                      compute_s=0.09), **BASIC)
        text = diff.render()
        assert "run diff:" in text
        assert "Job0-read" in text
        assert "blame (terms sum to the measured delta):" in text
        d = diff.as_dict()
        assert d["wall_delta_s"] == pytest.approx(0.1)
        assert set(d["segment_deltas"]) == set(SEGMENTS)
        total = math.fsum(c["delta_s"] for c in d["contributions"])
        assert total == pytest.approx(d["wall_delta_s"])
        stage_names = [s["stage"] for s in d["stages"]]
        assert stage_names == ["Job0-write", "Job0-read"]

    def test_empty_report_is_identity(self):
        diff = DiffReport("a", "b", "nio", "nio")
        assert diff.is_identity()
        assert diff.wall_delta_s == 0.0
        diff.check()
        assert isinstance(StructuralNode("task-count", "s", "d"), StructuralNode)


def test_diff_page_renders_a_real_two_worker_diff():
    # The blame page on two real recordings (2 workers, nio vs mpi-opt):
    # the standalone document, the waterfall, the attribution table and
    # the top contributor all reach the HTML.
    from repro.harness.experiments import _run_ohb
    from repro.obs.report_html import _esc, render_diff_page
    from repro.util.units import GiB
    from repro.workloads.ohb import GROUP_BY

    nio, opt = (
        _run_ohb(GROUP_BY, 2, 2 * GiB, transport, 0.1, obs_causal=True).result
        for transport in ("nio", "mpi-opt")
    )
    diff = diff_runs(nio, opt, a_label="nio", b_label="mpi-opt")
    diff.check()
    page = render_diff_page(diff, nio.flight, opt.flight, title="nio vs mpi-opt")
    assert page.startswith("<!DOCTYPE html><html>") and page.endswith("</html>")
    assert "<title>nio vs mpi-opt</title>" in page
    assert "<h3>stage Gantt (side by side)</h3><svg" in page
    assert "<h3>delta waterfall</h3><svg" in page
    assert "<h3>per-stage attribution</h3><table>" in page
    top = diff.top_contributor()
    assert top is not None
    assert f"top contributor: <b>{_esc(top)}</b>" in page
    for stage in diff.stages:
        assert f"<td class='l'>{_esc(stage.stage)}</td>" in page
