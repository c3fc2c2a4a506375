"""Unit + property tests for the fluid bandwidth-sharing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import SimEngine
from repro.simnet.fluid import FluidNetwork


@pytest.fixture
def env():
    return SimEngine()


def run_transfers(env, net, specs):
    """specs: list of (links, nbytes, start_time); returns finish times."""
    finishes = {}

    def starter(env, i, links, nbytes, at):
        if at:
            yield env.timeout(at)
        done = net.transfer(links, nbytes)
        yield done
        finishes[i] = env.now

    for i, (links, nbytes, at) in enumerate(specs):
        env.process(starter(env, i, links, nbytes, at))
    env.run()
    return finishes


class TestSingleFlow:
    def test_solo_flow_runs_at_capacity(self, env):
        net = FluidNetwork(env)
        f = run_transfers(env, net, [([("a", 100.0)], 1000.0, 0.0)])
        assert f[0] == pytest.approx(10.0)

    def test_two_links_min_capacity(self, env):
        net = FluidNetwork(env)
        f = run_transfers(env, net, [([("a", 100.0), ("b", 50.0)], 1000.0, 0.0)])
        assert f[0] == pytest.approx(20.0)

    def test_zero_bytes_immediate(self, env):
        net = FluidNetwork(env)
        done = net.transfer([("a", 100.0)], 0)
        assert done.triggered

    def test_negative_bytes_rejected(self, env):
        net = FluidNetwork(env)
        with pytest.raises(ValueError):
            net.transfer([("a", 100.0)], -1)

    def test_zero_capacity_rejected(self, env):
        net = FluidNetwork(env)
        with pytest.raises(ValueError):
            net.transfer([("a", 0.0)], 10)


class TestSharing:
    def test_two_flows_share_equally(self, env):
        net = FluidNetwork(env)
        f = run_transfers(
            env,
            net,
            [([("l", 100.0)], 1000.0, 0.0), ([("l", 100.0)], 1000.0, 0.0)],
        )
        # Both at 50 B/s -> both finish at t=20.
        assert f[0] == pytest.approx(20.0)
        assert f[1] == pytest.approx(20.0)

    def test_departure_speeds_up_survivor(self, env):
        net = FluidNetwork(env)
        f = run_transfers(
            env,
            net,
            [([("l", 100.0)], 500.0, 0.0), ([("l", 100.0)], 1500.0, 0.0)],
        )
        # Shared until t=10 (each has moved 500); flow0 done. Flow1 then
        # runs at 100: remaining 1000 -> finishes at t=20.
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(20.0)

    def test_late_arrival_slows_first(self, env):
        net = FluidNetwork(env)
        f = run_transfers(
            env,
            net,
            [([("l", 100.0)], 1000.0, 0.0), ([("l", 100.0)], 400.0, 5.0)],
        )
        # t<5: flow0 alone moves 500. Then shared 50/50: flow1's 400 takes
        # 8s (done t=13, flow0 has 100 left), flow0 finishes at 14.
        assert f[1] == pytest.approx(13.0)
        assert f[0] == pytest.approx(14.0)

    def test_disjoint_links_independent(self, env):
        net = FluidNetwork(env)
        f = run_transfers(
            env,
            net,
            [([("a", 100.0)], 1000.0, 0.0), ([("b", 100.0)], 1000.0, 0.0)],
        )
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(10.0)

    def test_cross_link_min_share(self, env):
        net = FluidNetwork(env)
        # flow0 uses links a+b; flow1 uses b only. b is shared.
        f = run_transfers(
            env,
            net,
            [([("a", 100.0), ("b", 100.0)], 500.0, 0.0), ([("b", 100.0)], 500.0, 0.0)],
        )
        # Both run at 50 until t=10 when both finish together.
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(10.0)

    def test_utilization(self, env):
        net = FluidNetwork(env)
        net.transfer([("l", 100.0)], 10_000.0)
        net.transfer([("l", 100.0)], 10_000.0)
        assert net.utilization("l") == pytest.approx(1.0)
        assert net.utilization("unknown") == 0.0
        assert net.active_count == 2


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(1e3, 1e7), min_size=1, max_size=10),
        st.floats(1e6, 1e9),
    )
    def test_aggregate_time_bounded_by_total_bytes(self, sizes, cap):
        # All flows share one link: the last finish time must equal
        # total_bytes / capacity (work conservation), regardless of mix.
        env = SimEngine()
        net = FluidNetwork(env)
        finishes = run_transfers(
            env, net, [([("l", cap)], s, 0.0) for s in sizes]
        )
        expected = sum(sizes) / cap
        assert max(finishes.values()) == pytest.approx(expected, rel=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(1e3, 1e7), min_size=2, max_size=8))
    def test_completion_order_by_size(self, sizes):
        # Equal-share flows on one link complete in size order.
        env = SimEngine()
        net = FluidNetwork(env)
        finishes = run_transfers(
            env, net, [([("l", 1e6)], s, 0.0) for s in sizes]
        )
        # Near-equal sizes may finish in either order (float time resolution),
        # so assert size-monotone completion up to a relative tolerance.
        order = sorted(range(len(sizes)), key=lambda i: finishes[i])
        for earlier, later in zip(order, order[1:]):
            assert sizes[earlier] <= sizes[later] * (1 + 1e-6)


class TestPerNetworkFids:
    def test_two_networks_allocate_identical_fids(self):
        # Flow ids are per-network, not process-global: building a second
        # cluster in the same process must see the same fid sequence, so
        # sorted(fids) timer orders (and thus rows) match across reruns.
        fids = []
        for _ in range(2):
            env = SimEngine()
            net = FluidNetwork(env)
            run_transfers(
                env,
                net,
                [([("l", 100.0)], 100.0, 0.0), ([("l", 100.0)], 200.0, 1.0)],
            )
            fids.append([f for f in range(net._next_fid)])
            assert net._next_fid == 2
        assert fids[0] == fids[1]

    def test_fid_sequence_dense_from_zero(self, env):
        net = FluidNetwork(env)
        done = [net.transfer([("l", 100.0)], 10.0) for _ in range(3)]
        assert sorted(net.flows) == [0, 1, 2]
        env.run()
        assert all(d.triggered for d in done)


class TestAffectedExactness:
    """Completion/abort re-rates must hit exactly the sharing flows."""

    def _record_rerates(self, net):
        batches = []
        orig = net._rerate

        def spy(fids):
            batches.append(sorted(fids))
            orig(fids)

        net._rerate = spy
        return batches

    def test_completion_rerates_exactly_sharers(self, env):
        net = FluidNetwork(env)
        net.transfer([("shared", 100.0)], 100.0)  # fid 0, finishes t=2
        net.transfer([("shared", 100.0)], 500.0)  # fid 1, sharer
        net.transfer([("other", 100.0)], 500.0)  # fid 2, unrelated
        batches = self._record_rerates(net)
        env.run()
        # fid 0's completion frees "shared": only fid 1 is re-rated —
        # never the flow on the untouched "other" link.
        assert [1] in batches
        assert all(2 not in b or 1 not in b for b in batches)

    def test_abort_rerates_exactly_sharers(self, env):
        net = FluidNetwork(env)
        d0 = net.transfer([("dead", 100.0), ("shared", 100.0)], 1e9)  # victim
        net.transfer([("shared", 100.0)], 1e9)  # survivor, shares a link
        net.transfer([("other", 100.0)], 1e9)  # unrelated
        d0.add_callback(lambda ev: None)  # absorb the failure
        batches = self._record_rerates(net)
        n = net.abort_flows(lambda k: k == "dead", RuntimeError)
        assert n == 1
        # Exactly the surviving sharer re-rates; the victim is already
        # unlinked and the unrelated flow is untouched.
        assert batches == [[1]]

    def test_single_link_affected_is_exact(self, env):
        net = FluidNetwork(env)
        net.transfer([("a", 100.0)], 50.0)
        net.transfer([("a", 100.0)], 50.0)
        net.transfer([("b", 100.0)], 50.0)
        a, b = net.links["a"], net.links["b"]
        assert net._affected((a,)) == {0, 1}
        assert net._affected((b,)) == {2}
        assert net._affected((a, b)) == {0, 1, 2}
        assert net._affected((a, b, a)) == {0, 1, 2}
        env.run()
        # Drained links stay registered, with empty sharing sets.
        assert net._affected((a,)) == set()
        assert net._affected((a, b)) == set()


class TestRerateCounters:
    def test_counters_published_lazily_and_excluded_names(self, env):
        net = FluidNetwork(env)
        net.transfer([("l", 100.0)], 100.0)
        env.run()
        snap = env.metrics.snapshot()
        names = snap.names("simnet.fluid.rerate.*")
        assert names == [
            "simnet.fluid.rerate.calls",
            "simnet.fluid.rerate.flows",
            "simnet.fluid.rerate.max_batch",
            "simnet.fluid.rerate.vector_batches",
        ]
        assert snap.counters["simnet.fluid.rerate.calls"] >= 1
        assert snap.counters["simnet.fluid.rerate.flows"] >= 1
        assert snap.counters["simnet.fluid.rerate.max_batch"] >= 1


class TestOnDemandUtilization:
    def test_utilization_tracks_completions_and_aborts(self, env):
        # utilization() sums the live rates of a link's flows in fid
        # order when asked; a drained or aborted link reads exactly 0.0,
        # with no float residue left behind by earlier rate changes.
        net = FluidNetwork(env)

        def recomputed(link):
            found = net.links[link]
            return sum(net.flows[fid].rate for fid in sorted(found.fids)) / found.cap

        def check():
            for link in net.links:
                assert net.utilization(link) == recomputed(link)

        def driver(env):
            net.transfer([("a", 100.0), ("b", 50.0)], 400.0)
            net.transfer([("b", 50.0)], 200.0)
            net.transfer([("c", 10.0)], 1e9)  # long-lived victim
            check()
            yield env.timeout(1.0)
            check()  # mid-flight, after re-rates
            yield env.timeout(30.0)
            check()  # a/b flows completed
            assert net.utilization("a") == 0.0
            assert net.utilization("b") == 0.0
            assert net.utilization("c") == 1.0
            net.abort_flows(lambda k: k == "c", RuntimeError)
            check()
            assert net.utilization("c") == 0.0

        env.process(driver(env))
        try:
            env.run()
        except RuntimeError:
            pass  # the aborted flow's done-event failure propagates
        assert net.active_count == 0
