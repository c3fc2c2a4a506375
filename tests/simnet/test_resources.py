"""Unit tests for the Store and SlotGate primitives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import SimEngine, SimError, Store
from repro.simnet.resources import SlotGate


@pytest.fixture
def env():
    return SimEngine()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return item

        store.put_nowait("x")
        p = env.process(consumer(env))
        env.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(3)
            store.put_nowait("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (3.0, "late")

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put_nowait(i)
        got = []

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]


class TestStoreNowait:
    def test_put_nowait_wakes_blocked_getter(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(3)
            assert store.put_nowait("late") is None

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (3.0, "late")

    def test_nowait_operations_schedule_nothing(self, env):
        store = Store(env)
        store.put_nowait("a")
        store.put_nowait("b")
        assert store.get_nowait() == "a"
        assert store.get_nowait() == "b"
        assert store.get_nowait() is None
        env.run()
        assert env.events_processed == 0


# One op of a random Store history. ``nowait`` picks the event-free take;
# the reference run ignores it.
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put")),
        st.tuples(st.just("take"), st.booleans()),
        st.tuples(st.just("get")),
        st.tuples(st.just("when_nonempty")),
        st.tuples(st.just("run")),
    ),
    max_size=40,
)


def _drive(ops, use_nowait):
    """Apply ``ops`` to a fresh store; return everything observable.

    The reference (``use_nowait=False``) takes without waiting through the
    event form: ``get().value`` on a non-empty store.
    """
    env = SimEngine()
    store = Store(env)
    woken = []  # dispatch order of every getter and when_nonempty waiter
    taken = []

    def watch(ev, label):
        ev.callbacks.append(lambda e: woken.append((label, e._value)))

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            store.put_nowait(i)
        elif kind == "take":
            if use_nowait and op[1]:
                taken.append(store.get_nowait())
            else:
                taken.append(store.get().value if store.items else None)
        elif kind == "get":
            watch(store.get(), f"get{i}")
        elif kind == "when_nonempty":
            watch(store.when_nonempty(), f"nonempty{i}")
        else:
            env.run()
        # The two invariants the event-free forms rely on.
        assert not (store.items and store._nonempty_waiters)
        assert not (store.items and store._getters)
    env.run()
    return woken, taken, list(store.items)


class TestStoreNowaitEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(ops=_store_ops)
    # A put consumed at once by a parked getter leaves the store empty:
    # the when_nonempty waiter stays parked until the next put.
    @example(ops=[("get",), ("when_nonempty",), ("put",), ("run",), ("put",)])
    # Two parked getters take two puts in arrival order; a take between
    # them finds the store empty.
    @example(ops=[("get",), ("get",), ("put",), ("take", True), ("put",)])
    def test_any_mix_matches_the_event_api(self, ops):
        # Same items taken, same getter wake order and values, same
        # when_nonempty wake-ups, same queue left.
        assert _drive(ops, True) == _drive(ops, False)


class TestSlotGate:
    def test_capacity_limits_concurrency(self, env):
        gate = SlotGate(env, capacity=2)
        active = []
        peak = []

        def worker(env, i):
            claim = gate.request()
            yield claim
            active.append(i)
            peak.append(len(active))
            try:
                yield env.timeout(10)
            finally:
                active.remove(i)
                gate.cancel(claim)

        for i in range(5):
            env.process(worker(env, i))
        env.run()
        assert max(peak) == 2
        assert (gate.held, len(gate.queue)) == (0, 0)

    def test_fifo_grant_order(self, env):
        gate = SlotGate(env, capacity=1)
        order = []

        def worker(env, i):
            yield gate.request()
            order.append(i)
            yield env.timeout(1)
            gate.release()

        for i in range(4):
            env.process(worker(env, i))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_serialization_time(self, env):
        gate = SlotGate(env, capacity=1)
        finish = {}

        def worker(env, i):
            yield gate.request()
            yield env.timeout(5)
            gate.release()
            finish[i] = env.now

        for i in range(3):
            env.process(worker(env, i))
        env.run()
        assert finish == {0: 5.0, 1: 10.0, 2: 15.0}

    def test_held_counts_granted_claims(self, env):
        gate = SlotGate(env, capacity=3)
        claims = [gate.request() for _ in range(2)]
        assert gate.held == len(gate) == 2
        for claim in claims:
            gate.cancel(claim)
        assert gate.held == 0

    def test_cancel_withdraws_a_queued_claim(self, env):
        gate = SlotGate(env, capacity=1)
        held = gate.request()
        queued = gate.request()
        assert held.triggered and not queued.triggered
        assert (gate.held, len(gate.queue)) == (1, 1)
        gate.cancel(queued)  # withdraw from the queue
        assert (gate.held, len(gate.queue)) == (1, 0)
        gate.cancel(held)
        env.run()
        assert (gate.held, len(gate.queue)) == (0, 0)
        assert not queued.triggered  # a withdrawn claim never triggers

    def test_release_with_nothing_held_raises(self, env):
        gate = SlotGate(env, capacity=1)
        with pytest.raises(SimError):
            gate.release()
        gate.cancel(gate.request())
        with pytest.raises(SimError):
            gate.release()

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            SlotGate(env, capacity=-1)
        gate = SlotGate(env, capacity=1)
        with pytest.raises(ValueError):
            gate.set_capacity(-1)

    def test_zero_capacity_parks_requesters(self, env):
        gate = SlotGate(env, capacity=0)
        claims = [gate.request() for _ in range(3)]
        env.run()
        assert not any(claim.triggered for claim in claims)
        assert (gate.held, len(gate.queue)) == (0, 3)

    def test_raising_capacity_wakes_waiters_in_order(self, env):
        gate = SlotGate(env, capacity=0)
        claims = [gate.request() for _ in range(3)]
        gate.set_capacity(2)
        assert [claim.triggered for claim in claims] == [True, True, False]
        assert (gate.held, len(gate.queue)) == (2, 1)

    def test_lowering_capacity_never_preempts_a_holder(self, env):
        gate = SlotGate(env, capacity=2)
        first, second = gate.request(), gate.request()
        waiter = gate.request()
        gate.set_capacity(1)
        assert gate.held == 2  # both holders keep their slots
        gate.cancel(first)
        assert gate.held == 1 and not waiter.triggered  # still at the new cap
        gate.cancel(second)
        assert gate.held == 1 and waiter.triggered
