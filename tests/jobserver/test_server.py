"""JobServer integration: ordering, determinism, isolation, shutdown."""

from repro.harness.systems import SYSTEMS
from repro.jobserver import (
    FairShareScheduler,
    FifoScheduler,
    JobServer,
    JobServerReport,
    PackingScheduler,
    poisson_trace,
    run_trace,
    trace_from_rows,
)
from repro.spark.deploy import SparkSimCluster
from repro.util.units import MiB

SYSTEM = SYSTEMS["Frontera"]


def small_cluster(transport="nio", n_workers=2, seed=3, **kw):
    return SparkSimCluster(
        SYSTEM, n_workers, transport, cores_per_executor=4, seed=seed, **kw
    )


def small_trace(n_jobs=4, seed=8, mean_interarrival_s=0.3):
    return poisson_trace(
        seed=seed,
        n_jobs=n_jobs,
        mean_interarrival_s=mean_interarrival_s,
        min_bytes=16 * MiB,
        max_bytes=64 * MiB,
        fidelity=0.25,
    )


class TestJobServerRuns:
    def test_all_jobs_finish_under_every_scheduler(self):
        trace = small_trace()
        for make in (FifoScheduler, FairShareScheduler, PackingScheduler):
            result = run_trace(small_cluster(), make(), trace)
            assert len(result.finished) == len(trace)
            assert not [r for r in result.records if r.failed]
            for rec in result.records:
                assert rec.start_s >= rec.submit_s
                assert rec.finish_s > rec.start_s
                assert rec.stage_seconds

    def test_fifo_starts_in_arrival_order(self):
        result = run_trace(small_cluster(), FifoScheduler(), small_trace(n_jobs=6))
        starts = [r.start_s for r in result.records]  # records in app-id order
        assert starts == sorted(starts)

    def test_jobserver_metrics_published(self):
        sim = small_cluster(obs_enabled=True)
        trace = small_trace(n_jobs=3)
        server = JobServer(sim, FifoScheduler(), trace)
        server.run()
        snap = sim.env.metrics.snapshot()
        values = snap.counters
        assert values["jobserver.submitted"] == 3
        assert values["jobserver.started"] == 3
        assert values["jobserver.finished"] == 3
        # Per-app namespaces: each tenant publishes its own task counters.
        for app_id in range(3):
            assert values[f"spark.app.app{app_id}.scheduler.tasks_finished"] > 0
        sim.shutdown()

    def test_same_seed_byte_identical_report(self):
        trace = small_trace()
        results_a = [
            run_trace(small_cluster(), FifoScheduler(), trace),
            run_trace(small_cluster(), FairShareScheduler(), trace),
        ]
        results_b = [
            run_trace(small_cluster(), FifoScheduler(), trace),
            run_trace(small_cluster(), FairShareScheduler(), trace),
        ]
        a = JobServerReport.from_results(results_a)
        b = JobServerReport.from_results(results_b)
        assert a.payload() == b.payload()
        assert a.digest() == b.digest()


class TestPerJobRngNamespacing:
    """Satellite: two-job runs reproduce single-job rows byte-identically."""

    ROWS = [
        {"workload": "GroupByTest", "submit_s": 0.5, "nominal_bytes": 48 * MiB,
         "parallelism": 4, "fidelity": 0.25},
        {"workload": "SortByTest", "submit_s": 30.0, "nominal_bytes": 32 * MiB,
         "parallelism": 4, "fidelity": 0.25},
    ]

    def test_two_job_run_reproduces_single_job_rows(self):
        trace2 = trace_from_rows(5, self.ROWS)
        solo_trace = trace_from_rows(5, self.ROWS[:1])
        solo = run_trace(small_cluster(), FifoScheduler(), solo_trace).records[0]
        pair = run_trace(small_cluster(), FifoScheduler(), trace2).records[0]
        assert solo.start_s == pair.start_s
        assert solo.finish_s == pair.finish_s
        assert solo.stage_seconds == pair.stage_seconds

    def test_app_seed_depends_only_on_cluster_seed_and_app_id(self):
        sim = small_cluster()
        sim.launch()
        a = sim.register_app(0)
        sim.release_app(a)
        b = sim.register_app(0)
        assert a.seed == b.seed
        other = sim.register_app(1)
        assert other.seed != b.seed
        sim.shutdown()


class TestShutdownWithInFlightApps:
    """Satellite: shutdown() is idempotent and safe mid-application."""

    def _mid_flight_cluster(self):
        sim = small_cluster(transport="mpi-basic", obs_causal=True)
        rows = [
            {"workload": "GroupByTest", "submit_s": 0.1, "nominal_bytes": 64 * MiB,
             "parallelism": 4, "fidelity": 0.25},
            {"workload": "SortByTest", "submit_s": 0.2, "nominal_bytes": 64 * MiB,
             "parallelism": 4, "fidelity": 0.25},
        ]
        server = JobServer(sim, FifoScheduler(), trace_from_rows(5, rows))
        server.start()
        sim.env.run(until=sim.env.now + 0.35)  # tenants mid-flight
        assert sim.apps, "expected an application still in flight"
        return sim

    def test_shutdown_mid_flight_leaves_no_dangling_spans(self):
        sim = self._mid_flight_cluster()
        sim.shutdown()
        assert not sim.apps
        assert not sim.env.causal.flight.open_spans()

    def test_shutdown_is_idempotent(self):
        sim = self._mid_flight_cluster()
        sim.shutdown()
        n_events = len(sim.env.causal.flight.events)
        sim.shutdown()  # second call: strict no-op
        sim.shutdown()
        assert len(sim.env.causal.flight.events) == n_events
        assert not sim.apps

    def test_clean_shutdown_unchanged(self):
        sim = small_cluster(obs_causal=True)
        result = run_trace(sim, FifoScheduler(), small_trace(n_jobs=2))
        assert len(result.finished) == 2
        assert not sim.env.causal.flight.open_spans()

