"""Selector unit tests (the Fig-5 primitive both designs revolve around)."""

import pytest

from repro.harness.experiments import _run_ohb
from repro.netty import Channel, EventLoop
from repro.netty.selector import Selector
from repro.simnet import IB_EDR, SimCluster, SimEngine, tcp_over
from repro.simnet.sockets import SocketAddress, SocketStack
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY


@pytest.fixture
def rig():
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=2)
    stack = SocketStack(env, cluster, tcp_over(IB_EDR))
    return env, cluster, stack


def connect_pair(env, stack, loop, port=9000):
    stack_listener = stack.listen(0, port)
    holder = {}

    def server(env):
        holder["server_sock"] = yield stack_listener.accept()

    def client(env):
        sock = yield from stack.connect(1, SocketAddress("node0", port))
        holder["client"] = Channel(loop, sock)

    env.process(server(env))
    env.process(client(env))
    env.run()
    return holder["client"], holder["server_sock"]


class TestSelectNow:
    def test_empty_selector(self, rig):
        env, cluster, stack = rig
        selector = Selector(env)
        assert selector.select_now() == []

    def test_readable_channel_reported(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop)
        selector = Selector(env)
        key = selector.register_channel(channel)
        assert selector.select_now() == []
        server_sock.send("data", 10)
        env.run()
        ready = selector.select_now()
        assert ready == [key]
        assert key.source is channel.socket.inbound and key.source.items

    def test_acceptable_listener_reported(self, rig):
        env, cluster, stack = rig
        selector = Selector(env)
        listener = stack.listen(0, 9001)
        key = selector.register_acceptor(listener, lambda ch: None)

        def client(env):
            yield from stack.connect(1, SocketAddress("node0", 9001))

        env.process(client(env))
        env.run()
        assert selector.select_now() == [key]
        assert key.source is listener.backlog and key.source.items

    def test_deregister_removes_key(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop)
        selector = Selector(env)
        selector.register_channel(channel)
        selector.deregister(channel)
        server_sock.send("data", 10)
        env.run()
        assert selector.select_now() == []


class TestBlockingSelect:
    def test_select_blocks_until_readable(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop)
        selector = Selector(env)
        selector.register_channel(channel)

        def selecting(env):
            ready = yield from selector.select()
            return (env.now, len(ready))

        def sender(env):
            yield env.timeout(5.0)
            server_sock.send("late", 10)

        p = env.process(selecting(env))
        env.process(sender(env))
        env.run()
        t, n = p.value
        assert t >= 5.0 and n == 1

    def test_wakeup_unblocks_select(self, rig):
        env, cluster, stack = rig
        selector = Selector(env)

        def selecting(env):
            ready = yield from selector.select()
            return (env.now, ready)

        def waker(env):
            yield env.timeout(2.0)
            selector.wakeup()

        p = env.process(selecting(env))
        env.process(waker(env))
        env.run()
        t, ready = p.value
        assert t == pytest.approx(2.0)
        assert ready == []  # nothing readable, just a wakeup

    def test_ready_key_returns_without_parking(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop)
        selector = Selector(env)
        key = selector.register_channel(channel)
        server_sock.send("data", 10)
        env.run()
        # Readable the instant select is entered: the generator finishes
        # on its first step, having built no park.
        with pytest.raises(StopIteration) as done:
            next(selector.select())
        assert done.value.value == [key]
        assert selector._park is None


class TestParkWaiters:
    """What wakes a park: the watchers of the keys' stores and of the
    wake-up queue, and nothing once a key is gone or the loop is busy."""

    def test_recycled_key_does_not_inherit_a_dead_waiter(self, rig):
        # Regression: waiters used to live in a dict keyed by id(key) that
        # outlived deregister, so a later key recycling a freed key's id
        # inherited a dead socket's event and was never woken. A key's
        # signal now lives on its own store; recycling must still wake.
        env, cluster, stack = rig
        loop = EventLoop(env)
        selector = Selector(env)
        n = 8
        old = [connect_pair(env, stack, loop, 9100 + i)[0] for i in range(n)]
        fresh = [connect_pair(env, stack, loop, 9200 + i) for i in range(n)]
        for channel in old:
            selector.register_channel(channel)
        woke = []

        def selecting(env):
            while True:
                ready = yield from selector.select()
                for key in ready:
                    key.source.items.pop(0)
                if ready:
                    woke.append(ready)

        env.process(selecting(env))
        env.run()  # parked, watching every old key's store
        for channel in old:
            channel.socket.close()
        keys = []
        for channel, (replacement, _) in zip(old, fresh):
            # Freed and re-allocated back to back: some of the new keys
            # land on the addresses of the old ones.
            selector.deregister(channel)
            keys.append(selector.register_channel(replacement))
        env.run()
        assert woke == []
        for i, (_, server_sock) in enumerate(fresh):
            server_sock.send("hello", 10)
            env.run()
            assert woke[i:] == [[keys[i]]]

    def test_deregister_drops_the_keys_waiter(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop)
        selector = Selector(env)
        key = selector.register_channel(channel)
        woke = []

        def selecting(env):
            yield from selector.select()
            woke.append(env.now)

        env.process(selecting(env))
        env.run()
        assert key.source.watcher == selector._park_signal
        assert selector._park is not None
        selector.deregister(channel)
        assert key.source.watcher is None
        server_sock.send("late", 10)  # lands on the unwatched store
        env.run()
        assert key.source.items and woke == []

    def test_stale_waiter_does_not_wake_a_later_park(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, _ = connect_pair(env, stack, loop)
        selector = Selector(env)
        selector.register_channel(channel)
        woke = []

        t0 = env.now

        def selecting(env):
            yield from selector.select()  # parked; woken by the wakeup at t0+1
            woke.append(env.now - t0)
            # Data lands and is consumed within this very instant, while
            # the loop is busy: the store's watcher finds no park.
            channel.socket.abort()
            assert selector._park is None
            assert channel.socket.inbound.items.pop(0).eof
            yield from selector.select()
            woke.append(env.now - t0)

        def waker(env):
            yield env.timeout(1.0)
            selector.wakeup()
            yield env.timeout(4.0)
            selector.wakeup()

        env.process(selecting(env))
        env.process(waker(env))
        env.run()
        # A put during the busy round waking the next select would read
        # [1.0, 1.0].
        assert woke == pytest.approx([1.0, 5.0])

    def test_a_wakeup_while_busy_wakes_the_next_park(self, rig):
        # The mpi-basic loop parks without a select emptying the wake-up
        # queue first: a wake-up (a newly bound channel to iprobe) queued
        # during its busy round must end its next park at once.
        env, cluster, stack = rig
        selector = Selector(env)
        woke = []

        def parking(env):
            yield env.timeout(1.0)
            selector.wakeup()  # busy: nobody parked
            assert selector._park is None and selector._wakeups.items
            yield from selector.park()
            woke.append(env.now)
            assert not selector._wakeups.items
            yield from selector.park()  # nothing queued: waits for the next
            woke.append(env.now)

        def waker(env):
            yield env.timeout(3.0)
            selector.wakeup()

        env.process(parking(env))
        env.process(waker(env))
        env.run()
        assert woke == pytest.approx([1.0, 3.0])


class TestWatchers:
    """A watched store signals its selector in line: the put that queues
    an item succeeds the pending park, and ``_ready`` reads the sources
    themselves."""

    def _parked(self, env, stack, port=9300):
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop, port)
        selector = Selector(env)
        key = selector.register_channel(channel)
        env.process(selector.select())
        env.run()  # parked on its one plain event
        assert selector._park is not None and not selector._park.triggered
        return selector, key, channel, server_sock

    def test_every_watcher_is_the_selectors_one_signal(self, rig):
        env, cluster, stack = rig
        selector, key, _, _ = self._parked(env, stack)
        listener = stack.listen(0, 9399)
        acceptor = selector.register_acceptor(listener, lambda ch: None)
        signal = selector._park_signal
        assert signal.__self__ is selector
        for store in (key.source, acceptor.source, selector._wakeups):
            assert store.watcher is signal

    def test_a_put_wakes_the_park_synchronously(self, rig):
        env, cluster, stack = rig
        selector, key, channel, _ = self._parked(env, stack)
        park = selector._park
        now, dispatched = env.now, env.events_processed
        channel.socket.abort()  # queues an EOF on the local inbound store
        # Succeeded inside the put: the loop resumes from the park's own
        # heap entry, with no waiter's dispatch before it.
        assert park.triggered and selector._park is None
        assert env.now == now and env.events_processed == dispatched
        assert selector.select_now() == [key]
        env.run()  # the park's entry, then the select process's end
        assert env.events_processed == dispatched + 2

    def test_every_key_gets_the_full_check(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop, 9310)
        selector = Selector(env)
        key = selector.register_channel(channel)
        server_sock.send("data", 10)
        env.run()
        assert selector.select_now() == [key]
        # A key whose park was woken and whose data was taken: checked,
        # found empty.
        parked, parked_key, parked_channel, peer = self._parked(env, stack, 9320)
        peer.send("data", 10)
        env.run()
        assert parked.select_now() == [parked_key]
        parked_channel.socket.inbound.items.pop(0)
        assert parked.select_now() == []

    def test_a_deregistered_key_is_not_reported(self, rig):
        env, cluster, stack = rig
        selector, key, channel, server_sock = self._parked(env, stack)
        park = selector._park
        selector.deregister(channel)
        server_sock.send("data", 10)
        env.run()
        assert channel.socket.inbound.items
        assert selector.select_now() == [] and not park.triggered


@pytest.mark.parametrize("transport", ["nio", "mpi-basic"])
def test_ready_equals_the_full_scan_for_a_whole_run(transport, monkeypatch):
    """Every ``_ready()`` of the Fig-9 GroupBy cell (2 workers) returns
    exactly the readable-or-acceptable scan of the sockets and listeners
    themselves, and every park starts with its keys empty and watched by
    its selector's signal: a park arms nothing for its keys, so a key
    holding an item as it parks would never wake it."""
    ready, park = Selector._ready, Selector.park
    calls, parks = [0], [0]

    def checked(selector):
        got = ready(selector)
        keys = selector.keys
        full = [
            k for k in keys
            if (k.channel.socket.inbound if k.listener is None else k.listener.backlog).items
        ]
        calls[0] += 1
        # Raised from the loop's own process, so it ends the run at once
        # (a loop that misses a ready key would otherwise spin forever).
        assert got == full, f"t={selector.env.now}: {got} != {full}"
        return got

    def parked(selector, *args, **kwargs):
        parks[0] += 1
        for key in selector.keys:
            assert not key.source.items, f"t={selector.env.now}: {key} ready at park"
            assert key.source.watcher == selector._park_signal
        return park(selector, *args, **kwargs)

    monkeypatch.setattr(Selector, "_ready", checked)
    monkeypatch.setattr(Selector, "park", parked)
    _run_ohb(GROUP_BY, 2, 28 * GiB, transport, 0.25)
    assert calls[0] > 1000 and parks[0] > 100
