"""Unit tests for the MPI matching engine (queues, probes, failure sweeps)."""

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

    def test_probe_event_immediate_when_queued(self, engine):
        engine.deliver(make_envelope())
        ev = engine.probe_event(0, 1, 100)
        assert ev.triggered

    def test_probe_event_fires_on_arrival(self, env, engine):
        ev = engine.probe_event(0, 1, 100)
        assert not ev.triggered
        engine.deliver(make_envelope())
        assert ev.triggered
        assert ev.value.tag == 1

    def test_probe_event_filter(self, env, engine):
        ev = engine.probe_event(0, 5, 100)
        engine.deliver(make_envelope(tag=1))
        assert not ev.triggered
        engine.deliver(make_envelope(tag=5))
        assert ev.triggered

    def test_nonmatching_buckets_stay_parked(self, env, engine):
        miss_src = engine.probe_event(3, 1, 100)
        miss_tag = engine.probe_event(0, 9, 100)
        miss_ctx = engine.probe_event(0, 1, 777)
        hit = engine.probe_event(0, 1, 100)
        engine.deliver(make_envelope(src_rank=0, tag=1))
        assert hit.triggered
        assert not miss_src.triggered
        assert not miss_tag.triggered
        assert not miss_ctx.triggered

    def test_wake_probes_empty_drains_in_order(self, env, engine):
        order = []
        for i, (src, tag) in enumerate([(0, 1), (1, 5), (2, 3), (0, 1)]):
            ev = engine.probe_event(src, tag, 100)
            ev.callbacks.append(lambda e, i=i: order.append(i))
        engine.wake_probes_empty()
        env.run()
        assert order == [0, 1, 2, 3]
        # The structure is fully drained: a later delivery wakes nothing.
        engine.deliver(make_envelope())
        assert len(engine.unexpected) == 1


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
