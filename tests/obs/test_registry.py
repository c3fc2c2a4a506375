"""Unit tests for the sim-clock-native metrics registry."""

import pytest

from repro.obs.registry import Histogram, MetricsRegistry
from repro.simnet.engine import SimEngine


@pytest.fixture
def env():
    return SimEngine()


class TestRegistryBasics:
    def test_engine_owns_a_registry(self, env):
        assert isinstance(env.metrics, MetricsRegistry)
        assert env.metrics.env is env

    def test_get_or_create_returns_same_object(self, env):
        a = env.metrics.counter("a.b.c")
        b = env.metrics.counter("a.b.c")
        assert a is b
        assert len(env.metrics) == 1

    def test_kind_mismatch_raises(self, env):
        env.metrics.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            env.metrics.histogram("x")

    def test_counter_increments(self, env):
        c = env.metrics.counter("n")
        c.value += 1.0
        c.value += 2.5
        assert c.value == 3.5

    def test_on_snapshot_hook_publishes_lazily(self, env):
        # A value kept outside the registry (the process-global cache
        # stats) is synced into it only when a snapshot is taken.
        c = env.metrics.counter("lazy.total")
        state = {"n": 0}
        env.metrics.on_snapshot(lambda: c.__setattr__("value", float(state["n"])))
        state["n"] = 41
        assert c.value == 0.0  # nothing published yet
        assert env.metrics.snapshot().value("lazy.total") == 41.0
        state["n"] = 42
        assert env.metrics.snapshot().value("lazy.total") == 42.0  # idempotent re-sync


class TestTimeWeightedGauge:
    def test_time_average_weights_by_duration(self, env):
        g = env.metrics.time_gauge("active")

        def proc(env):
            g.set(2.0)  # at t=0
            yield env.timeout(1.0)
            g.set(4.0)  # held 2.0 for [0,1)
            yield env.timeout(3.0)
            g.set(0.0)  # held 4.0 for [1,4)

        env.process(proc(env))
        env.run()
        # integral = 2*1 + 4*3 = 14 over 4s
        assert g.time_average() == pytest.approx(14.0 / 4.0)

    def test_time_average_before_any_time_passes(self, env):
        g = env.metrics.time_gauge("idle")
        g.set(7.0)
        assert g.time_average() == 7.0


class TestHistogram:
    def test_summary_has_exact_moments(self, env):
        h = env.metrics.histogram("lat")
        for x in (1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        s = h.summary()
        assert s.n == 4
        assert s.mean == 2.5
        assert s.stdev == pytest.approx((5.0 / 3.0) ** 0.5)
        assert s.min == 1.0 and s.max == 4.0
        assert s.total == 10.0

    def test_empty_summary_is_none_and_dropped_from_snapshot(self, env):
        env.metrics.histogram("never_observed")
        assert env.metrics.histogram("never_observed").summary() is None
        snap = env.metrics.snapshot()
        assert "never_observed" not in snap.histograms

    def test_moments_stay_exact_over_many_observations(self, env):
        h = env.metrics.histogram("big")
        n = 12_288
        for i in range(n):
            h.observe(float(i))
        s = h.summary()
        assert s.n == n
        assert s.mean == pytest.approx((n - 1) / 2.0)
        assert s.min == 0.0 and s.max == float(n - 1)
        assert s.total == float(n * (n - 1) // 2)
        # moments only: no per-sample storage however long the run
        assert Histogram.__slots__ == ("name", "stats")

    def test_summary_is_deterministic_across_registries(self):
        summaries = []
        for _ in range(2):
            h = SimEngine().metrics.histogram("lat")
            for i in range(4097):
                h.observe(float(i) * 0.1)
            summaries.append(h.summary())
        assert summaries[0] == summaries[1]

    def test_observe_many_merges_moments(self, env):
        bulk = env.metrics.histogram("bulk")
        one_by_one = env.metrics.histogram("one_by_one")
        for h in (bulk, one_by_one):
            for x in (1.0, 9.0):
                h.observe(x)
        bulk.observe_many(-5.0, 1000)
        bulk.observe_many(3.0, 0)  # no observations: a no-op
        for _ in range(1000):
            one_by_one.observe(-5.0)
        got, want = bulk.summary(), one_by_one.summary()
        assert (got.n, got.min, got.max, got.total) == (
            want.n, want.min, want.max, want.total
        )
        assert got.mean == pytest.approx(want.mean)
        assert got.stdev == pytest.approx(want.stdev)


class TestSnapshot:
    def _populated(self, env):
        m = env.metrics
        m.counter("netty.loop.a.busy_s").value += 1.5
        m.counter("netty.loop.b.busy_s").value += 0.5
        m.counter("mpi.rank.r0.iprobe_calls").value += 10
        m.time_gauge("flows").set(2)
        m.histogram("wait").observe(0.25)
        return m.snapshot()

    def test_len_and_names_glob(self, env):
        snap = self._populated(env)
        assert len(snap) == 5
        assert snap.names("netty.loop.*.busy_s") == [
            "netty.loop.a.busy_s",
            "netty.loop.b.busy_s",
        ]

    def test_total_sums_matching_counters_only(self, env):
        snap = self._populated(env)
        assert snap.total("netty.loop.*.busy_s") == 2.0
        assert snap.total("no.such.*") == 0.0
        # gauges/histograms are not counters: excluded from total()
        assert snap.total("flows") == 0.0
        assert snap.total("wait") == 0.0

    def test_value_lookup(self, env):
        snap = self._populated(env)
        assert snap.value("mpi.rank.r0.iprobe_calls") == 10
        assert snap.value("flows") == 2
        assert snap.value("missing", default=-1.0) == -1.0

    def test_snapshot_is_frozen(self, env):
        snap = self._populated(env)
        with pytest.raises(AttributeError):
            snap.taken_at = 99.0

    def test_delta_across_registries_drops_zeros(self, env):
        snap_a = self._populated(env)
        env2 = SimEngine()
        m2 = env2.metrics
        m2.counter("netty.loop.a.busy_s").value += 4.5
        m2.counter("spark.scheduler.tasks_finished").value += 7
        snap_b = m2.snapshot()
        d = snap_b.delta(snap_a)
        assert d["netty.loop.a.busy_s"] == 3.0
        assert d["spark.scheduler.tasks_finished"] == 7
        # b's missing counters with a zero diff don't appear
        assert "netty.loop.b.busy_s" not in d
        assert snap_b.delta(snap_a, "spark.*") == {
            "spark.scheduler.tasks_finished": 7
        }

    def test_delta_across_registries_with_disjoint_lazy_counters(self):
        # Two fresh engines whose counters are *disjoint* and published
        # only by on_snapshot hooks — the A/B pattern the diff engine
        # leans on: a clean run vs a faulted run of two same-seed
        # clusters, each with its own lazily-synced hot-path counters.
        def lazy_registry(name, value):
            e = SimEngine()
            c = e.metrics.counter(name)
            state = {"n": 0}
            e.metrics.on_snapshot(
                lambda: c.__setattr__("value", float(state["n"]))
            )
            state["n"] = value
            return e.metrics

        m_a = lazy_registry("netty.loop.a.polls", 100)
        m_b = lazy_registry("mpi.rank.r0.iprobe_calls", 7)
        snap_a, snap_b = m_a.snapshot(), m_b.snapshot()
        # hooks fired on each side independently
        assert snap_a.value("netty.loop.a.polls") == 100.0
        assert snap_b.value("mpi.rank.r0.iprobe_calls") == 7.0
        # disjoint names: b's counters count from zero against a...
        assert snap_b.delta(snap_a) == {"mpi.rank.r0.iprobe_calls": 7.0}
        # ...and delta is one-directional by contract: names present
        # only in the baseline do not appear as negative entries.
        assert "netty.loop.a.polls" not in snap_b.delta(snap_a)
        assert snap_a.delta(snap_b) == {"netty.loop.a.polls": 100.0}
        # glob filtering still applies across the disjoint sets
        assert snap_b.delta(snap_a, "netty.*") == {}

    def test_elapsed_uses_sim_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)

        env.process(proc(env))
        env.run()
        snap = env.metrics.snapshot()
        assert snap.taken_at == 2.5
        assert snap.elapsed_s == 2.5
