"""Pipeline and handler propagation tests (no network needed)."""

import pytest

from repro.netty import (
    Channel,
    ChannelHandler,
    ChannelPipeline,
    EventLoop,
    PipelineError,
)
from repro.simnet import IB_EDR, SimCluster, SimEngine, tcp_over
from repro.simnet.sockets import SocketAddress, SocketStack


class Recorder(ChannelHandler):
    """Inbound handler recording and forwarding events."""

    def __init__(self, name, log, transform=None, consume=False):
        self.tag = name
        self.log = log
        self.transform = transform
        self.consume = consume

    def channel_active(self, ctx):
        self.log.append((self.tag, "active"))
        ctx.fire_channel_active()

    def channel_read(self, ctx, msg):
        self.log.append((self.tag, "read", msg))
        if self.consume:
            return
        if self.transform:
            msg = self.transform(msg)
        ctx.fire_channel_read(msg)

    def channel_inactive(self, ctx):
        self.log.append((self.tag, "inactive"))
        ctx.fire_channel_inactive()


class OutRecorder(ChannelHandler):
    def __init__(self, tag, log, transform=None):
        self.tag = tag
        self.log = log
        self.transform = transform

    def write(self, ctx, msg, promise):
        self.log.append((self.tag, "write", msg))
        if self.transform:
            msg = self.transform(msg)
        ctx.write(msg, promise)


@pytest.fixture
def channel():
    env = SimEngine()
    cluster = SimCluster(env, IB_EDR, n_nodes=2, cores_per_node=2)
    stack = SocketStack(env, cluster, tcp_over(IB_EDR))
    stack.listen(0, 1)
    loop = EventLoop(env)
    result = {}

    def client(env):
        sock = yield from stack.connect(1, SocketAddress("node0", 1))
        result["channel"] = Channel(loop, sock)

    env.process(client(env))
    env.run()
    return result["channel"]


class TestPipelineStructure:
    def test_add_last_order(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", Recorder("a", log))
        p.add_last("b", Recorder("b", log))
        assert p.names() == ["a", "b"]

    def test_add_first(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", Recorder("a", log))
        p.add_first("z", Recorder("z", log))
        assert p.names() == ["z", "a"]

    def test_duplicate_name_rejected(self, channel):
        p = channel.pipeline
        p.add_last("a", Recorder("a", []))
        with pytest.raises(PipelineError):
            p.add_last("a", Recorder("a", []))


class TestInboundPropagation:
    def test_read_flows_head_to_tail(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", Recorder("a", log))
        p.add_last("b", Recorder("b", log))
        p.fire_channel_read("msg")
        assert log == [("a", "read", "msg"), ("b", "read", "msg")]

    def test_handler_can_transform(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", Recorder("a", log, transform=lambda m: m.upper()))
        p.add_last("b", Recorder("b", log))
        p.fire_channel_read("msg")
        assert log[-1] == ("b", "read", "MSG")

    def test_handler_can_consume(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", Recorder("a", log, consume=True))
        p.add_last("b", Recorder("b", log))
        p.fire_channel_read("msg")
        assert log == [("a", "read", "msg")]
        assert p.unhandled_reads == []

    def test_unconsumed_read_reaches_tail(self, channel):
        channel.pipeline.fire_channel_read("orphan")
        assert channel.pipeline.unhandled_reads == ["orphan"]

    def test_active_and_inactive_propagate(self, channel):
        log = []
        channel.pipeline.add_last("a", Recorder("a", log))
        channel.pipeline.fire_channel_active()
        channel.pipeline.fire_channel_inactive()
        assert ("a", "active") in log and ("a", "inactive") in log


class TestOutboundPropagation:
    def test_write_flows_tail_to_head(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("a", OutRecorder("a", log))
        p.add_last("b", OutRecorder("b", log))
        channel.write_and_flush("out")
        # Outbound visits b (closer to tail) before a.
        assert [e[0] for e in log] == ["b", "a"]

    def test_write_reaches_socket(self, channel):
        channel.write_and_flush("payload")
        assert channel.socket.peer is not None

    def test_write_promise_succeeds(self, channel):
        promise = channel.write_and_flush("x")
        assert promise.triggered and promise.ok

    def test_unobserved_write_promise_is_never_scheduled(self, channel):
        env = channel.env
        promise = channel.write_and_flush("x")
        # Processed in place: there is no dispatch left to wait for.
        assert promise.processed and promise.ok

        def late_waiter(env):
            yield promise
            return env.now

        now = env.now
        waiter = env.process(late_waiter(env))
        env.run(until=waiter)
        assert waiter.value == now

    def test_observed_write_promise_fires_through_the_heap(self, channel):
        seen = []

        class Observer(ChannelHandler):
            def write(self, ctx, msg, promise):
                promise.add_callback(lambda p: seen.append(msg))
                ctx.write(msg, promise)

        channel.pipeline.add_last("obs", Observer())
        promise = channel.write_and_flush("x")
        assert promise.triggered and not promise.processed and seen == []
        channel.env.run()
        assert seen == ["x"]


class TestSkipLinks:
    """Reads skip handlers that only write and vice versa (executionMask)."""

    def test_write_only_handler_is_skipped_inbound(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("out", OutRecorder("out", log))
        p.add_last("in", Recorder("in", log))
        assert p._head.next_reader.name == "in"
        p.fire_channel_read("msg")
        assert log == [("in", "read", "msg")]

    def test_read_only_handler_is_skipped_outbound(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("out", OutRecorder("out", log))
        p.add_last("in", Recorder("in", log))
        assert p._tail.prev_writer.name == "out"
        channel.write_and_flush("msg")
        assert log == [("out", "write", "msg")]

    def test_add_first_relinks_at_runtime(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("b", Recorder("b", log))
        p.fire_channel_read(1)
        p.add_first("a", Recorder("a", log))
        p.add_first("w", OutRecorder("w", log))
        p.fire_channel_read(2)
        channel.write_and_flush(4)
        assert log == [
            ("b", "read", 1),
            ("a", "read", 2), ("b", "read", 2),
            ("w", "write", 4),
        ]
        assert p.unhandled_reads == [1, 2]

    def test_all_pass_through_pipeline_reaches_tail_and_transport(self, channel):
        p = channel.pipeline
        p.add_last("a", ChannelHandler())
        p.add_last("b", ChannelHandler())
        assert p._head.next_reader is p._tail and p._tail.prev_writer is None
        p.fire_channel_read("orphan")
        assert p.unhandled_reads == ["orphan"]
        sent = []
        channel._transport_write = lambda msg, promise: sent.append(msg)
        channel.write_and_flush("out")
        assert sent == ["out"]

    def test_other_events_still_visit_every_handler(self, channel):
        log = []
        p = channel.pipeline
        p.add_last("out", OutRecorder("out", log))
        p.add_last("in", Recorder("in", log))
        p.fire_channel_active()
        p.fire_channel_inactive()
        assert log == [("in", "active"), ("in", "inactive")]


class TestExceptionFlow:
    def test_exception_recorded_at_tail(self, channel):
        channel.pipeline.fire_exception_caught(ValueError("boom"))
        assert len(channel.pipeline.unhandled_exceptions) == 1

    def test_handler_intercepts_exception(self, channel):
        caught = []

        class Catcher(ChannelHandler):
            def exception_caught(self, ctx, exc):
                caught.append(exc)

        channel.pipeline.add_last("c", Catcher())
        channel.pipeline.fire_exception_caught(ValueError("boom"))
        assert len(caught) == 1
        assert channel.pipeline.unhandled_exceptions == []
