"""Unit tests for the sim-clock-native metrics registry."""

import pytest

from repro.obs.registry import MetricsRegistry
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


class TestSnapshot:
    def _populated(self, env):
        m = env.metrics
        m.counter("netty.loop.a.busy_s").value += 1.5
        m.counter("netty.loop.b.busy_s").value += 0.5
        m.counter("mpi.rank.r0.iprobe_calls").value += 10
        return m.snapshot()

    def test_len_and_names_glob(self, env):
        snap = self._populated(env)
        assert len(snap) == 3
        assert snap.names("netty.loop.*.busy_s") == [
            "netty.loop.a.busy_s",
            "netty.loop.b.busy_s",
        ]

    def test_total_sums_matching_counters_only(self, env):
        snap = self._populated(env)
        assert snap.total("netty.loop.*.busy_s") == 2.0
        assert snap.total("no.such.*") == 0.0

    def test_value_lookup(self, env):
        snap = self._populated(env)
        assert snap.value("mpi.rank.r0.iprobe_calls") == 10
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
