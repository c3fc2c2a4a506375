"""What-if replay engine: synthetic exactness, knob scaling, real runs.

The synthetic tests hand-build a flight log whose bucket decomposition
is computable on paper (one eager + one rendezvous transfer, a single
slot forcing wave serialization), then check the replay reproduces the
recorded schedule exactly and shifts it by exactly the hand-computed
delta under each knob.  The integration tests run a real traced cluster
and close the loop through the JSONL export.
"""

import pytest

from repro.obs.causal import TraceContext
from repro.obs.flightrec import FlightRecorder
from repro.obs.whatif import (
    DEFAULT_GRID,
    IDENTITY,
    Perturbation,
    ReplayModel,
    StageRecord,
    TaskRecord,
    load_model,
)

RNDV = 16384


def synthetic_flight(transport="mpi-basic", with_meta=True, local_s=0.05):
    """Two stages; every bucket of every task is computable by hand.

    Read-stage geometry (1 executor, 1 slot — waves serialize):

    * task0: starts 1.0, finishes 1.5; fetch window [1.1, 1.4] with a
      0.05 s local read.  An eager transfer is wire [1.15, 1.20] then
      dwells 0.05 s to its match; a rendezvous transfer (1 MiB > 16 KiB)
      moves after its match, wire [1.30, 1.38].  So wire = 0.13,
      exposed dwell = 0.05, rest = 0.07.
    * task1: starts 1.5 (the recorded slot grant), finishes 1.8, pure
      compute.
    """
    rec = FlightRecorder()
    if with_meta:
        rec.record(
            0.0, "run.meta", None,
            workload="Synthetic", transport=transport, system="TestSys",
            n_workers=1, cores_per_executor=1, slots_per_executor=1,
            rendezvous_threshold=RNDV,
        )
    t_map, t_a, t_b = TraceContext(1, 1), TraceContext(2, 2), TraceContext(3, 3)
    eager = TraceContext(2, 20, 2)
    rndv = TraceContext(2, 21, 2)

    rec.record(0.0, "stage.start", None, stage="S-map", n_tasks=1)
    rec.record(0.0, "task.start", t_map, task="S-map-task0", exec=0)
    rec.record(0.9, "task.finish", t_map, task="S-map-task0",
               compute_s=0.4, write_s=0.3)
    rec.record(1.0, "stage.finish", None, stage="S-map", seconds=1.0)

    rec.record(1.0, "stage.start", None, stage="S-read", n_tasks=2)
    rec.record(1.0, "task.start", t_a, task="S-read-task0", exec=0)
    rec.record(1.15, "msg.send", eager, type=3, nbytes=512, ch="c0")
    rec.record(1.25, "mpi.match", eager, waited_s=0.05, unexpected=True)
    rec.record(1.20, "msg.send", rndv, type=4, nbytes=1 << 20, ch="c0")
    rec.record(1.30, "mpi.match", rndv, waited_s=0.0, unexpected=False)
    rec.record(1.38, "msg.recv", rndv, nbytes=1 << 20, ch="c0")
    finish_attrs = dict(
        task="S-read-task0", exec=0,
        compute_s=0.1, combine_s=0.1, fetch_wait_s=0.3,
    )
    if local_s is not None:
        finish_attrs["local_s"] = local_s
    rec.record(1.5, "task.finish", t_a, **finish_attrs)
    rec.record(1.5, "task.start", t_b, task="S-read-task1", exec=0)
    rec.record(1.8, "task.finish", t_b, task="S-read-task1", exec=0,
               compute_s=0.3)
    rec.record(2.0, "stage.finish", None, stage="S-read", seconds=1.0)
    return rec


class TestModelConstruction:
    def test_meta_supplies_geometry(self):
        model = ReplayModel.from_flight(synthetic_flight())
        assert model.transport == "mpi-basic"
        assert model.slots_per_executor == 1
        assert model.n_executors == 1
        assert model.meta["workload"] == "Synthetic"
        assert [s.label for s in model.stages] == ["S-map", "S-read"]

    def test_bucket_decomposition_by_hand(self):
        model = ReplayModel.from_flight(synthetic_flight())
        read = model.stages[1]
        a, b = read.tasks
        assert (a.index, b.index) == (0, 1)
        assert a.local == pytest.approx(0.05)
        assert a.wire == pytest.approx(0.13)
        assert a.dwell == pytest.approx(0.05)
        assert a.rest == pytest.approx(0.07)
        assert a.compute == pytest.approx(0.2)
        assert b.compute == pytest.approx(0.3)
        # every bucket sums back to the recorded duration
        for t in (a, b):
            assert (
                t.fixed + t.compute + t.write + t.local + t.wire + t.dwell + t.rest
            ) == pytest.approx(t.duration)

    def test_missing_local_read_is_rejected(self):
        with pytest.raises(ValueError, match="no local_s attribute"):
            ReplayModel.from_flight(synthetic_flight(local_s=None))

    def test_dwell_bucket_only_under_basic(self):
        model = ReplayModel.from_flight(synthetic_flight(transport="mpi-opt"))
        a = model.stages[1].tasks[0]
        assert a.dwell == 0.0
        assert a.wire == pytest.approx(0.13)
        assert a.rest == pytest.approx(0.12)  # absorbs the overlapped dwell

    def test_missing_meta_requires_explicit_geometry(self):
        flight = synthetic_flight(with_meta=False)
        with pytest.raises(ValueError, match="transport unknown"):
            ReplayModel.from_flight(flight)
        with pytest.raises(ValueError, match="slot width unknown"):
            ReplayModel.from_flight(flight, transport="mpi-basic")
        model = ReplayModel.from_flight(
            flight, transport="mpi-basic", slots_per_executor=1
        )
        assert model.n_executors == 1  # inferred from observed exec ids

    def test_jobserver_traces_rejected(self):
        flight = synthetic_flight()
        flight.record(2.1, "job.submit", None, app="app-a")
        with pytest.raises(ValueError, match="multi-tenant"):
            ReplayModel.from_flight(flight)


class TestRetime:
    @pytest.fixture()
    def model(self):
        return ReplayModel.from_flight(synthetic_flight())

    def test_identity_is_exact(self, model):
        pred = model.retime(IDENTITY)
        assert pred.wall_s == model.wall_s == 2.0
        assert pred.stage_seconds == {"S-map": 1.0, "S-read": 1.0}
        assert pred.speedup == 1.0

    def test_default_retime_is_identity(self, model):
        assert model.retime().wall_s == model.wall_s

    def test_link_rate_scales_wire_bucket_only(self, model):
        pred = model.retime(Perturbation(name="2x NIC", link_rate=2.0))
        # task0's 0.13 s wire halves; the wave shift propagates to task1.
        assert pred.stage_seconds["S-read"] == pytest.approx(1.0 - 0.065)
        assert pred.stage_seconds["S-map"] == 1.0
        assert pred.wall_s == pytest.approx(2.0 - 0.065)

    def test_poll_tax_scales_exposed_dwell(self, model):
        pred = model.retime(Perturbation(name="0 poll", poll_tax=0.0))
        assert pred.wall_s == pytest.approx(2.0 - 0.05)

    def test_serializer_scales_write_bucket(self, model):
        pred = model.retime(Perturbation(name="2x ser", serializer_rate=2.0))
        assert pred.stage_seconds["S-map"] == pytest.approx(1.0 - 0.15)
        assert pred.stage_seconds["S-read"] == 1.0

    def test_local_read_rate_scales_local_bucket(self, model):
        pred = model.retime(Perturbation(name="2x ram", local_read_rate=2.0))
        assert pred.wall_s == pytest.approx(2.0 - 0.025)

    def test_compute_knob_shifts_waves(self, model):
        pred = model.retime(Perturbation(name="2x cpu", compute=0.5))
        # map: -0.2; read: task0 -0.1 shifts task1's grant, task1 -0.15.
        assert pred.stage_seconds["S-map"] == pytest.approx(0.8)
        assert pred.stage_seconds["S-read"] == pytest.approx(0.75)

    def test_executor_rewidth_unserializes_the_wave(self, model):
        pred = model.retime(Perturbation(name="2 exec", executors=2))
        # task1 no longer waits for task0's slot: ends at 1.3, so the
        # stage is bounded by task0's 1.5 finish (delta -0.3).
        assert pred.stage_seconds["S-read"] == pytest.approx(0.7)
        assert pred.wall_s == pytest.approx(1.7)

    def test_executors_must_be_positive(self, model):
        with pytest.raises(ValueError):
            model.retime(Perturbation(name="bad", executors=0))

    def test_slower_knobs_slow_the_replay(self, model):
        assert model.retime(
            Perturbation(name="half NIC", link_rate=0.5)
        ).wall_s == pytest.approx(2.0 + 0.13)

    def test_sensitivity_ranks_by_speedup(self, model):
        ranked = model.sensitivity()
        speedups = [p.speedup for p in ranked]
        assert speedups == sorted(speedups, reverse=True)
        assert len(ranked) == len(DEFAULT_GRID) + 1  # + doubled executors
        assert model.sensitivity(top_k=3) == ranked[:3]

    def test_bucket_seconds_totals(self, model):
        buckets = model.bucket_seconds()
        assert buckets["wire"] == pytest.approx(0.13)
        assert buckets["dwell"] == pytest.approx(0.05)
        assert buckets["write"] == pytest.approx(0.3)
        total_dur = sum(t.duration for s in model.stages for t in s.tasks)
        assert sum(buckets.values()) == pytest.approx(total_dur)


class TestPerturbation:
    def test_identity_predicate_and_describe(self):
        assert IDENTITY.describe() == Perturbation(name="x").describe() == "identity"
        p = Perturbation(name="x", link_rate=2.0, poll_tax=0.0, executors=4)
        assert p.describe() == "link_rate x2, poll_tax x0, executors=4"

    def test_grid_names_unique(self):
        names = [p.name for p in DEFAULT_GRID]
        assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def traced_run():
    """One small causally-traced GroupBy cell (shared across tests)."""
    from repro.harness.systems import FRONTERA
    from repro.spark.deploy import SparkSimCluster
    from repro.util.units import GiB
    from repro.workloads.ohb import GROUP_BY

    sim = SparkSimCluster(
        FRONTERA, 2, "mpi-basic", obs_enabled=True, obs_causal=True
    )
    sim.launch()
    profile = GROUP_BY.build_profile(FRONTERA, 2, 2 * GiB, fidelity=0.05)
    result = sim.run_profile(profile)
    sim.shutdown()
    return result


class TestRealRun:
    def test_identity_reproduces_recorded_wall_exactly(self, traced_run):
        model = ReplayModel.from_result(traced_run)
        pred = model.retime(IDENTITY)
        assert pred.wall_s == traced_run.total_seconds
        assert pred.stage_seconds == dict(traced_run.stage_seconds)

    def test_meta_header_recorded(self, traced_run):
        model = ReplayModel.from_result(traced_run)
        assert model.meta["workload"] == "GroupByTest"
        assert model.meta["transport"] == "mpi-basic"
        assert model.meta["rendezvous_threshold"] == RNDV
        assert model.n_executors == 2

    def test_jsonl_round_trip_predicts_identically(self, traced_run, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        traced_run.flight.write(path)
        loaded = load_model(path)
        live = ReplayModel.from_result(traced_run)
        assert loaded.retime(IDENTITY).wall_s == traced_run.total_seconds
        for p in DEFAULT_GRID:
            assert loaded.retime(p).wall_s == live.retime(p).wall_s

    def test_faster_knobs_never_slow_the_run(self, traced_run):
        model = ReplayModel.from_result(traced_run)
        base = model.wall_s
        for p in DEFAULT_GRID:
            if p.name == "0.5x NIC":
                assert model.retime(p).wall_s >= base
            else:
                assert model.retime(p).wall_s <= base


class TestPlannerReport:
    def test_planner_section_in_run_report(self, traced_run):
        from repro.obs import critical_path, render_report

        page = render_report([(traced_run, critical_path(traced_run))])
        assert "capacity planner (what-if replay)" in page
        assert "zero poll-tax" in page

    def test_standalone_planner_page(self, traced_run):
        from repro.obs import render_planner_page

        model = ReplayModel.from_result(traced_run)
        rows = [
            {"label": "2x NIC", "predicted_s": 1.0, "simulated_s": 1.02},
            {"label": "way off", "predicted_s": 2.0, "simulated_s": 1.0},
        ]
        page = render_planner_page(model, rows, title="planner test")
        assert "planner test" in page
        assert "GroupByTest" in page
        assert "predicted vs simulated" in page
        # in-band points draw blue, out-of-band red
        assert "#4c78a8" in page and "#e45756" in page
