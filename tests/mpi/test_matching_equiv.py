"""Bucketed matching engine vs a reference linear-scan matcher.

The engine keys unexpected envelopes and posted receives by their exact
(source, tag, context) spec; MPI matching order must be indistinguishable
from the textbook O(n)-scan implementation:

* ``deliver`` matches the earliest-*posted* receive with the envelope's spec;
* ``post_recv`` claims the earliest-*arrived* envelope with its spec;
* ``iprobe`` sees exactly what a linear scan of the unexpected queue sees,
  and ``take`` is ``iprobe`` followed, when it sees a match, by
  ``post_recv``;
* the failure sweeps see the queues in the order a linear scan keeps them:
  ``fail_posted`` fails in post order, and the ``unexpected`` view a rank
  death walks lists envelopes in arrival order.

Randomized operation streams (seeded — failures reproduce) drive both
implementations and compare every match event plus final queue states.
"""

import random

import pytest

from repro.mpi.envelope import Envelope, Protocol
from repro.mpi.matching import MatchingEngine
from repro.mpi.request import Request
from repro.simnet import SimEngine


def _matches(source, tag, ctx, envl):
    return (envl.src_rank, envl.tag, envl.context_id) == (source, tag, ctx)


class ReferenceMatcher:
    """Straight-from-the-standard linear matcher (unbucketed)."""

    def __init__(self):
        self.unexpected = []  # envelopes, arrival order
        self.posted = []  # (source, tag, ctx, req_id), post order
        self.matches = []  # ("match", envelope payload, req_id, buffered)

    def deliver(self, envl):
        for i, (src, tag, ctx, req_id) in enumerate(self.posted):
            if _matches(src, tag, ctx, envl):
                del self.posted[i]
                self.matches.append(("match", envl.payload, req_id, False))
                return
        self.unexpected.append(envl)

    def post_recv(self, source, tag, ctx, req_id):
        for i, envl in enumerate(self.unexpected):
            if _matches(source, tag, ctx, envl):
                del self.unexpected[i]
                self.matches.append(("match", envl.payload, req_id, True))
                return
        self.posted.append((source, tag, ctx, req_id))

    def iprobe(self, source, tag, ctx):
        return any(_matches(source, tag, ctx, e) for e in self.unexpected)

    def fail_posted(self, pred):
        """The req_ids failed, in post order; survivors stay posted."""
        failed = [p for p in self.posted if pred(*p[:3])]
        self.posted = [p for p in self.posted if not pred(*p[:3])]
        return [req_id for (_, _, _, req_id) in failed]


@pytest.mark.parametrize("seed", range(8))
def test_randomized_streams_match_reference(seed):
    rng = random.Random(seed)
    sources = [0, 1, 2, 3]
    tags = [1, 2, 3]
    contexts = [100, 101]

    env = SimEngine()
    matches = []

    def on_match(envl, posted, buffered):
        # A take's request is built inside the engine, without a req_id.
        req_id = getattr(posted.request, "req_id", None)
        matches.append(("match", envl.payload, req_id, buffered))

    engine = MatchingEngine(env, on_match)
    ref = ReferenceMatcher()
    failed = []
    reqs = {}

    n_payload = 0
    n_req = 0
    for _ in range(400):
        op = rng.random()
        ctx = rng.choice(contexts)
        source, tag = rng.choice(sources), rng.choice(tags)
        if op < 0.45:
            envl = Envelope(
                src_gid=0,
                src_rank=source,
                dst_gid=99,
                context_id=ctx,
                tag=tag,
                payload=n_payload,
                nbytes=8,
                protocol=Protocol.EAGER,
            )
            n_payload += 1
            engine.deliver(envl)
            ref.deliver(envl)
        elif op < 0.88:
            req = Request(env, "recv")
            req.req_id = n_req
            reqs[n_req] = req
            req.event.callbacks.append(lambda e, i=n_req: failed.append(i))
            n_req += 1
            engine.post_recv(source, tag, ctx, req)
            ref.post_recv(source, tag, ctx, req.req_id)
        elif op < 0.93:
            assert engine.iprobe(source, tag, ctx) == ref.iprobe(source, tag, ctx)
        elif op < 0.98:
            found = ref.iprobe(source, tag, ctx)
            assert (engine.take(source, tag, ctx) is not None) == found
            if found:
                ref.post_recv(source, tag, ctx, None)
        else:
            # A peer dies: its posted receives on every context fail.
            def pred(src, tg, cx, dead=source):
                return src == dead

            n = engine.fail_posted(
                lambda p: pred(p.source, p.tag, p.context_id),
                lambda: RuntimeError("peer died"),
            )
            want = ref.fail_posted(pred)
            assert n == len(want)
            env.run()
            assert failed == want
            assert all(not reqs[i].event.ok for i in failed)
            failed.clear()

    assert matches == ref.matches
    # Residual queues agree too, in arrival/post order respectively: a
    # final sweep of every posted survivor fails them all in post order.
    assert [e.payload for e in engine.unexpected] == [
        e.payload for e in ref.unexpected
    ]
    everyone = [req_id for (_, _, _, req_id) in ref.posted]
    assert engine.fail_posted(lambda p: True, RuntimeError) == len(everyone)
    env.run()
    assert failed == everyone
