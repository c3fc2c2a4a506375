"""Unit tests for Store and Resource primitives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import SimEngine, Store
from repro.simnet.resources import Resource, StoreCancelled


@pytest.fixture
def env():
    return SimEngine()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return item

        store.put("x")
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
            store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (3.0, "late")

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_filtered_get_skips_nonmatching(self, env):
        store = Store(env)
        store.put(("tag", 1))
        store.put(("other", 2))

        def consumer(env):
            item = yield store.get(lambda m: m[0] == "other")
            return item

        p = env.process(consumer(env))
        env.run()
        assert p.value == ("other", 2)
        assert store.peek() == ("tag", 1)  # unmatched item stays queued

    def test_filtered_get_waits_for_match(self, env):
        store = Store(env)
        store.put("no")

        def consumer(env):
            item = yield store.get(lambda m: m == "yes")
            return (env.now, item)

        def producer(env):
            yield env.timeout(2)
            store.put("yes")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (2.0, "yes")

    def test_capacity_blocks_putter(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(5)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 5.0) in log

    def test_cancel_pending_get(self, env):
        store = Store(env)

        def consumer(env):
            req = store.get()
            yield env.timeout(1)
            req.cancel()
            try:
                yield req
            except StoreCancelled:
                return "cancelled"

        p = env.process(consumer(env))
        env.run()
        assert p.value == "cancelled"

    def test_peek_with_filter(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert store.peek(lambda x: x > 1) == 2
        assert store.peek(lambda x: x > 5) is None
        assert len(store) == 2

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)


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
        assert store.get_nowait(lambda x: x == "z") is None
        assert store.get_nowait() == "b"
        assert store.get_nowait() is None
        env.run()
        assert env.events_processed == 0

    def test_put_nowait_on_full_store_waits_its_turn(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        accepted = store.put("b")  # full: queued behind nothing
        store.put_nowait("c")  # full: queued behind "b"
        assert list(store.items) == ["a"] and not accepted.triggered
        assert store.get_nowait() == "a"
        assert list(store.items) == ["b"] and accepted.triggered
        assert store.get_nowait() == "b"
        assert store.get_nowait() == "c"


# One op of a random Store history. ``nowait`` picks the event-free form
# where the subject has one; the reference run ignores it.
_FILTERS = (None, lambda x: x % 3 == 0, lambda x: x % 3 == 1)
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.booleans()),
        st.tuples(st.just("take"), st.booleans(), st.integers(0, 2)),
        st.tuples(st.just("get"), st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("when_nonempty")),
        st.tuples(st.just("run")),
    ),
    max_size=40,
)


def _drive(ops, capacity, use_nowait):
    """Apply ``ops`` to a fresh store; return everything observable.

    The reference (``use_nowait=False``) is the event API alone: ``put``,
    and for a non-blocking take the peek-then-get idiom the selector loop
    used before ``get_nowait`` existed.
    """
    env = SimEngine()
    store = Store(env, capacity=capacity)
    woken = []  # dispatch order of every getter and when_nonempty waiter
    taken = []
    getters = []

    def watch(ev, label):
        ev.callbacks.append(
            lambda e: woken.append((label, e._value if e._ok else "cancelled"))
        )

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            if use_nowait and op[1]:
                store.put_nowait(i)
            else:
                store.put(i)
        elif kind == "take":
            filt = _FILTERS[op[2]]
            if use_nowait and op[1]:
                taken.append(store.get_nowait(filt))
            elif store.peek(filt) is None:
                taken.append(None)
            else:
                taken.append(store.get(filt).value)
        elif kind == "get":
            getters.append(store.get(_FILTERS[op[1]]))
            watch(getters[-1], f"get{i}")
        elif kind == "cancel":
            if op[1] < len(getters):
                getters[op[1]].cancel()
        elif kind == "when_nonempty":
            watch(store.when_nonempty(), f"nonempty{i}")
        else:
            env.run()
        if use_nowait:
            # The two invariants the event-free forms rely on.
            assert not (store.items and store._nonempty_waiters)
            assert not any(
                store.peek(g.filter) is not None
                for g in store._getters
                if not g.triggered
            )
    env.run()
    queued_puts = [item for _, item in store._putters]
    return woken, taken, list(store.items), queued_puts


class TestStoreNowaitEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(ops=_store_ops, capacity=st.sampled_from([float("inf"), 1, 2, 3]))
    # A take frees space, the admitted putter's item is what a parked
    # getter was waiting for.
    @example(
        ops=[("put", True), ("put", True), ("get", 2), ("take", True, 0)],
        capacity=1,
    )
    # A put consumed at once by a parked getter leaves the store empty:
    # the when_nonempty waiter stays parked until the next put.
    @example(
        ops=[("get", 0), ("when_nonempty",), ("put", True), ("run",), ("put", True)],
        capacity=float("inf"),
    )
    def test_any_mix_matches_the_event_api(self, ops, capacity):
        # Same items taken, same getter wake order and values, same
        # when_nonempty wake-ups, same queue and putter backlog left.
        assert _drive(ops, capacity, True) == _drive(ops, capacity, False)


class TestResource:
    def test_capacity_limits_concurrency(self, env):
        res = Resource(env, capacity=2)
        active = []
        peak = []

        def worker(env, i):
            req = res.request()
            yield req
            active.append(i)
            peak.append(len(active))
            try:
                yield env.timeout(10)
            finally:
                active.remove(i)
                res.release(req)

        for i in range(5):
            env.process(worker(env, i))
        env.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, i):
            req = res.request()
            yield req
            order.append(i)
            yield env.timeout(1)
            res.release(req)

        for i in range(4):
            env.process(worker(env, i))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_serialization_time(self, env):
        res = Resource(env, capacity=1)
        finish = {}

        def worker(env, i):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)
            finish[i] = env.now

        for i in range(3):
            env.process(worker(env, i))
        env.run()
        assert finish == {0: 5.0, 1: 10.0, 2: 15.0}

    def test_release_unknown_raises(self, env):
        res = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        req = other.request()
        with pytest.raises(Exception):
            res.release(req)

    def test_release_queued_request_cancels(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        assert held.triggered
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # withdraw from queue
        res.release(held)
        assert res.count == 0

    def test_count_property(self, env):
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(2)]
        assert res.count == 2
        for r in reqs:
            res.release(r)
        assert res.count == 0

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_acquire_helper(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            req = yield from res.acquire()
            yield env.timeout(1)
            res.release(req)
            return env.now

        p = env.process(worker(env))
        env.run()
        assert p.value == 1.0
