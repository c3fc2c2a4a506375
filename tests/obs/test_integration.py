"""Integration: metrics and traces from real simulated-cluster runs."""

import json

import pytest

from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.obs import (
    chrome_trace,
    iprobe_calls,
    loop_busy_fraction,
    polling_tax_seconds,
    write_chrome_trace,
)
from repro.spark.deploy import SparkSimCluster


def _run(transport, **kwargs):
    sim = SparkSimCluster(
        INTERNAL_CLUSTER, 2, transport, cores_per_executor=2, **kwargs
    )
    sim.launch()
    result = sim.run_profile(make_chaos_profile(2, 2, shuffle_bytes=8 << 20))
    sim.shutdown()
    return sim, result


class TestObsKeywords:
    def test_trace_implies_enabled(self):
        # The obs_trace keyword turns the metric columns on and records
        # nothing: the flight recording is opt-in through obs_causal alone.
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", obs_trace=True)
        assert sim.obs_enabled
        assert not sim.env.causal.enabled


class TestDisabledPath:
    def test_no_snapshot_no_tracer_by_default(self):
        sim, result = _run("nio")
        assert result.metrics is None
        assert result.flight is None
        assert not sim.env.causal.enabled

    def test_registry_still_counts_for_backcompat(self):
        # EventLoop.iterations/messages_read are registry-backed properties
        # and must keep counting even with obs off.
        sim, _ = _run("nio")
        loops = [loop for ex in sim.executors for loop in ex.loops.loops]
        assert sum(loop.iterations for loop in loops) > 0
        assert sum(loop.messages_read for loop in loops) > 0


class TestEnabledRun:
    @pytest.fixture(scope="class")
    def run(self):
        return _run("mpi-opt", obs_enabled=True)

    def test_snapshot_attached(self, run):
        _, result = run
        assert result.metrics is not None
        assert len(result.metrics) > 0

    def test_metrics_from_at_least_four_layers(self, run):
        _, result = run
        snap = result.metrics
        layers = [
            "netty.loop.*",
            "mpi.rank.*",
            "simnet.link.*",
            "spark.scheduler.*",
            "transport.*",
        ]
        present = [p for p in layers if snap.names(p)]
        assert len(present) >= 4, f"layers present: {present}"

    def test_scheduler_phases_accounted(self, run):
        _, result = run
        snap = result.metrics
        assert snap.value("spark.scheduler.tasks_finished") == 12  # 3 stages * 4
        assert snap.value("spark.scheduler.compute_s") > 0
        assert snap.value("spark.scheduler.write_s") > 0
        assert snap.value("spark.scheduler.fetch_wait_s") > 0
        assert "spark.scheduler.task_fetch_wait_s" in snap.histograms

    def test_optimized_split_visible(self, run):
        # The Optimized design's header-on-socket / body-over-MPI split.
        _, result = run
        snap = result.metrics
        assert snap.total("transport.mpi-opt.header.bytes") > 0
        assert snap.total("transport.mpi-opt.body.bytes") > 0
        assert (
            snap.total("transport.mpi-opt.body.bytes")
            > snap.total("transport.mpi-opt.header.bytes")
        )

    def test_link_traffic_recorded(self, run):
        _, result = run
        snap = result.metrics
        assert snap.total("simnet.link.*.tx_bytes") > 0
        assert snap.total("simnet.link.*.rx_bytes") > 0


class TestPollingTax:
    def test_basic_pays_optimized_does_not(self):
        _, basic = _run("mpi-basic", obs_enabled=True)
        _, opt = _run("mpi-opt", obs_enabled=True)
        tax_basic = polling_tax_seconds(basic.metrics)
        tax_opt = polling_tax_seconds(opt.metrics)
        assert tax_basic > 0.0
        assert tax_basic >= 10.0 * tax_opt
        assert iprobe_calls(basic.metrics) > 0
        assert 0.0 < loop_busy_fraction(basic.metrics) < 1.0


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self):
        _, result = _run("mpi-opt", obs_causal=True)
        return result

    def test_stage_and_task_spans_export_valid_json(self, traced, tmp_path):
        assert traced.metrics is not None  # causal implies enabled
        trace = chrome_trace(traced)
        threads = {
            ev["args"]["name"]
            for ev in trace["traceEvents"] if ev["name"] == "thread_name"
        }
        assert "driver" in threads
        assert any(t.startswith("exec") for t in threads)
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert {ev["cat"] for ev in spans} == {"stage", "task"}
        # every task finished within the run
        assert not any(ev["args"].get("unfinished") for ev in spans)
        path = write_chrome_trace(traced, tmp_path / "t.json")
        assert json.loads(path.read_text()) == json.loads(json.dumps(trace))

    def test_read_task_spans_annotated_with_fetch_wait(self, traced):
        read_spans = [
            ev for ev in chrome_trace(traced)["traceEvents"]
            if ev["ph"] == "X" and ev["cat"] == "task" and "read" in ev["name"]
        ]
        assert read_spans
        assert all("fetch_wait_s" in ev["args"] for ev in read_spans)
