"""Unit tests for the MPI matching engine (queues, probes, watchers, failure
sweeps)."""

import pytest

from repro.mpi.envelope import Envelope, Protocol
from repro.mpi.matching import MatchingEngine
from repro.mpi.request import Request
from repro.simnet import SimEngine


@pytest.fixture
def env():
    return SimEngine()


def make_envelope(src_rank=0, tag=1, ctx=100, nbytes=10, seq_payload=None):
    return Envelope(
        src_gid=src_rank,
        src_rank=src_rank,
        dst_gid=99,
        context_id=ctx,
        tag=tag,
        payload=seq_payload,
        nbytes=nbytes,
        protocol=Protocol.EAGER,
    )


def count(env, name):
    """A counter of the anonymous engine (``mpi.rank.anon.*``)."""
    return env.metrics.counter(f"mpi.rank.anon.{name}").value


@pytest.fixture
def engine(env):
    matches = []

    def on_match(envl, posted, buffered):
        matches.append((envl, posted, buffered))

    eng = MatchingEngine(env, on_match)
    eng.test_matches = matches
    return eng


class TestDelivery:
    def test_unmatched_goes_to_unexpected(self, engine):
        engine.deliver(make_envelope())
        assert len(engine.unexpected) == 1
        assert engine.test_matches == []

    def test_posted_recv_matches_arrival(self, env, engine):
        req = Request(env, "recv")
        engine.post_recv(0, 1, 100, req)
        engine.deliver(make_envelope())
        assert len(engine.test_matches) == 1
        _, _, buffered = engine.test_matches[0]
        assert buffered is False
        assert count(env, "posted_matches") == 1

    def test_recv_matches_unexpected_with_buffer_flag(self, env, engine):
        engine.deliver(make_envelope())
        req = Request(env, "recv")
        engine.post_recv(0, 1, 100, req)
        _, _, buffered = engine.test_matches[0]
        assert buffered is True
        assert count(env, "unexpected_matches") == 1

    def test_fifo_matching_order(self, env, engine):
        engine.deliver(make_envelope(seq_payload="first"))
        engine.deliver(make_envelope(seq_payload="second"))
        engine.post_recv(0, 1, 100, Request(env, "recv"))
        assert engine.test_matches[0][0].payload == "first"

    def test_context_isolation(self, env, engine):
        engine.deliver(make_envelope(ctx=100))
        engine.post_recv(0, 1, 102, Request(env, "recv"))
        assert engine.test_matches == []
        assert len(engine.unexpected) == 1
        # the receive is still posted: a rank-death sweep fails it
        assert engine.fail_posted(lambda p: True, RuntimeError) == 1

    def test_selective_recv_skips_nonmatching(self, env, engine):
        engine.deliver(make_envelope(tag=1))
        engine.deliver(make_envelope(tag=2))
        engine.post_recv(0, 2, 100, Request(env, "recv"))
        assert engine.test_matches[0][0].tag == 2
        assert len(engine.unexpected) == 1  # tag=1 still queued

    def test_posted_order_respected(self, env, engine):
        r1, r2 = Request(env, "recv"), Request(env, "recv")
        engine.post_recv(0, 1, 100, r1)
        engine.post_recv(0, 1, 100, r2)
        engine.deliver(make_envelope())
        assert engine.test_matches[0][1].request is r1
        engine.deliver(make_envelope())
        assert engine.test_matches[1][1].request is r2


class TestProbes:
    def test_iprobe_counts_calls(self, env, engine):
        assert engine.iprobe(0, 1, 100) is False
        engine.deliver(make_envelope())
        assert engine.iprobe(0, 1, 100) is True
        assert engine.iprobe(0, 2, 100) is False
        assert count(env, "iprobe_calls") == 3
        # One bucket looked at per probe of a live context; a probe of an
        # idle context looks at none.
        assert count(env, "iprobe_scan_len_total") == 2

    def test_take_is_iprobe_then_post_recv(self, env, engine):
        assert engine.take(0, 1, 100) is None
        engine.deliver(make_envelope(nbytes=3))
        assert engine.take(0, 2, 100) is None
        req = engine.take(0, 1, 100)
        ((envl, posted, buffered),) = engine.test_matches
        assert posted.request is req and req.kind == "recv"
        assert (envl.nbytes, buffered) == (3, True)
        assert engine.take(0, 1, 100) is None
        assert engine.unexpected == []
        # Counted as the probes and the one unexpected match it stands for.
        assert count(env, "iprobe_calls") == 4
        assert count(env, "iprobe_scan_len_total") == 2
        assert count(env, "unexpected_matches") == 1

    def test_iprobe_does_not_consume(self, engine):
        engine.deliver(make_envelope())
        engine.iprobe(0, 1, 100)
        assert len(engine.unexpected) == 1

    # A watched bucket calls its watcher in line when a delivery queues an
    # envelope there; nothing else calls it but ``wake_watchers``.
    @staticmethod
    def watch(engine, *buckets):
        calls = []
        for bucket in buckets:
            engine.watchers[bucket] = lambda eng, bucket=bucket: calls.append((bucket, eng))
        return calls

    def test_delivery_calls_the_watcher_once_in_line(self, env, engine):
        calls = self.watch(engine, (100, 0, 1))
        engine.deliver(make_envelope())
        # Called inside the delivery, with the engine: nothing is scheduled.
        assert calls == [((100, 0, 1), engine)]
        assert env._heap == []
        engine.deliver(make_envelope())
        assert calls == [((100, 0, 1), engine)] * 2
        assert len(engine.unexpected) == 2  # the watcher consumes nothing

    def test_posted_match_calls_nothing(self, env, engine):
        calls = self.watch(engine, (100, 0, 1))
        engine.post_recv(0, 1, 100, Request(env, "recv"))
        engine.deliver(make_envelope())
        assert len(engine.test_matches) == 1
        assert calls == []

    def test_probe_event_filter(self, env, engine):
        # A watcher on tag 5 is not called for tag 1, and is for tag 5.
        calls = self.watch(engine, (100, 0, 5))
        engine.deliver(make_envelope(tag=1))
        assert calls == []
        engine.deliver(make_envelope(tag=5))
        assert calls == [((100, 0, 5), engine)]

    def test_nonmatching_buckets_stay_parked(self, env, engine):
        # Another source, tag or context: only the exact bucket is called.
        calls = self.watch(
            engine, (100, 3, 1), (100, 0, 9), (777, 0, 1), (100, 0, 1)
        )
        engine.deliver(make_envelope(src_rank=0, tag=1, ctx=100))
        assert calls == [((100, 0, 1), engine)]

    def test_wake_watchers_calls_in_registration_order(self, env, engine):
        buckets = [(100, 0, 1), (100, 1, 5), (100, 2, 3), (101, 0, 1)]
        calls = self.watch(engine, *buckets)
        engine.wake_watchers()
        assert calls == [(bucket, engine) for bucket in buckets]
        assert env._heap == []
        # The watchers stay: their owner drops them, not the wake.
        assert list(engine.watchers) == buckets


class TestFailPosted:
    def test_thousand_posted_fail_half(self, env, engine):
        # 1000 posted receives spread over exact buckets, several deep;
        # failing every even tag must complete exactly those 500 in post
        # order and leave the rest matchable.
        reqs = [Request(env, "recv") for _ in range(1000)]
        for i, req in enumerate(reqs):
            engine.post_recv(i % 7, i % 10, 100, req)
        fail_order = []
        for i, req in enumerate(reqs):
            req.event.callbacks.append(lambda e, i=i: fail_order.append(i))
        n = engine.fail_posted(
            lambda p: p.tag % 2 == 0, lambda: RuntimeError("rank died")
        )
        assert n == 500
        env.run()
        assert fail_order == list(range(0, 1000, 2))  # post order
        for i, req in enumerate(reqs):
            if i % 2 == 0:
                assert req.event.triggered and not req.event.ok
            else:
                assert not req.event.triggered
        assert engine.fail_posted(lambda p: True, RuntimeError) == 500

    def test_survivors_still_match(self, env, engine):
        keep, kill = Request(env, "recv"), Request(env, "recv")
        engine.post_recv(0, 1, 100, keep)
        engine.post_recv(0, 2, 100, kill)
        assert engine.fail_posted(lambda p: p.tag == 2, RuntimeError) == 1
        engine.deliver(make_envelope(tag=1))
        assert engine.test_matches[0][1].request is keep
