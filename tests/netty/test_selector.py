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
        # on its first step, having armed no waiter and built no park.
        with pytest.raises(StopIteration) as done:
            next(selector.select())
        assert done.value.value == [key]
        assert key.waiter is None and selector._park is None


class TestParkWaiters:
    """The persistent per-source waiters behind select and the mpi-basic park."""

    def test_recycled_key_does_not_inherit_a_dead_waiter(self, rig):
        # Regression: waiters used to live in a dict keyed by id(key) that
        # outlived deregister. A locally closed channel's waiter never fires
        # (its EOF goes to the peer), so a later key recycling the freed
        # key's id inherited a dead socket's event and was never woken.
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
        env.run()  # parked with one waiter per old key
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
        waiter = key.waiter
        assert waiter is not None and not waiter.triggered
        selector.deregister(channel)
        assert key.waiter is None
        server_sock.send("late", 10)  # fires the dropped waiter
        env.run()
        assert waiter.callbacks is None and woke == []

    def test_stale_waiter_does_not_wake_a_later_park(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, _ = connect_pair(env, stack, loop)
        selector = Selector(env)
        key = selector.register_channel(channel)
        woke = []

        t0 = env.now

        def selecting(env):
            yield from selector.select()  # parked; woken by the wakeup at t0+1
            woke.append(env.now - t0)
            # Data lands and is consumed within this very instant: the
            # key's waiter has triggered but is still waiting in the heap.
            channel.socket.abort()
            assert channel.socket.inbound.items.pop(0).eof
            spent = key.waiter
            assert spent.triggered and spent.callbacks is not None
            yield from selector.select()
            assert key.waiter is not spent and spent.callbacks is None
            woke.append(env.now - t0)

        def waker(env):
            yield env.timeout(1.0)
            selector.wakeup()
            yield env.timeout(4.0)
            selector.wakeup()

        env.process(selecting(env))
        env.process(waker(env))
        env.run()
        # A spent waiter waking the third select would read [1.0, 1.0].
        assert woke == pytest.approx([1.0, 5.0])

class TestPendingWaiterWitness:
    """``_ready`` skips a key whose park waiter is still pending: the waiter
    was made while the key's store was empty, and the only thing that
    queues an item triggers it on the spot."""

    def _parked(self, env, stack, port=9300):
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop, port)
        selector = Selector(env)
        key = selector.register_channel(channel)
        env.process(selector.select())
        env.run()  # parked: the key holds a pending waiter
        assert key.waiter is not None and not key.waiter.triggered
        return selector, key, channel, server_sock

    def test_pending_waiter_means_an_empty_source(self, rig, monkeypatch):
        env, cluster, stack = rig
        selector, key, channel, _ = self._parked(env, stack)
        assert not channel.socket.inbound.items
        checked = []

        class Probe:
            @property
            def items(self):
                checked.append(key)
                return []

        monkeypatch.setattr(key, "source", Probe())
        assert selector.select_now() == []
        assert checked == []  # skipped on the witness, not probed

    def test_a_put_triggers_the_waiter_synchronously(self, rig):
        env, cluster, stack = rig
        selector, key, channel, _ = self._parked(env, stack)
        now = env.now
        channel.socket.abort()  # queues an EOF on the local inbound store
        assert key.waiter.triggered and key.waiter.callbacks is not None
        assert env.now == now
        assert selector.select_now() == [key]

    def test_a_key_without_a_pending_waiter_gets_the_full_check(self, rig):
        env, cluster, stack = rig
        loop = EventLoop(env)
        channel, server_sock = connect_pair(env, stack, loop, 9310)
        selector = Selector(env)
        key = selector.register_channel(channel)
        server_sock.send("data", 10)
        env.run()
        assert key.waiter is None
        assert selector.select_now() == [key]
        # A triggered waiter whose data was taken: checked, found empty.
        parked, parked_key, parked_channel, peer = self._parked(env, stack, 9320)
        peer.send("data", 10)
        env.run()
        assert parked_key.waiter.triggered
        assert parked.select_now() == [parked_key]
        parked_channel.socket.inbound.items.pop(0)
        assert parked_key.waiter.triggered and parked.select_now() == []

    def test_a_deregistered_key_is_not_reported(self, rig):
        env, cluster, stack = rig
        selector, key, channel, server_sock = self._parked(env, stack)
        selector.deregister(channel)
        server_sock.send("data", 10)
        env.run()
        assert channel.socket.inbound.items
        assert selector.select_now() == []


@pytest.mark.parametrize("transport", ["nio", "mpi-basic"])
def test_ready_equals_the_full_scan_for_a_whole_run(transport, monkeypatch):
    """Every ``_ready()`` of the Fig-9 GroupBy cell (2 workers) returns
    exactly the readable-or-acceptable scan of the sockets and listeners
    themselves, and the witness does skip."""
    ready = Selector._ready
    calls, skipped = [0], [0]

    def checked(selector):
        got = ready(selector)
        keys = selector.keys
        full = [
            k for k in keys
            if (k.channel.socket.inbound if k.listener is None else k.listener.backlog).items
        ]
        calls[0] += 1
        skipped[0] += sum(k.waiter is not None and not k.waiter.triggered for k in keys)
        # Raised from the loop's own process, so it ends the run at once
        # (a loop that misses a ready key would otherwise spin forever).
        assert got == full, f"t={selector.env.now}: {got} != {full}"
        return got

    monkeypatch.setattr(Selector, "_ready", checked)
    _run_ohb(GROUP_BY, 2, 28 * GiB, transport, 0.25)
    assert calls[0] > 1000 and skipped[0] > 0
