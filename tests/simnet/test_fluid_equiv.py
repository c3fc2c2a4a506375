"""Vectorized fluid re-rating vs the reference scalar solver.

``FluidNetwork._rerate`` computes rate batches with numpy once a batch
reaches ``_VECTOR_MIN`` flows. The contract is *bit-identical* IEEE-754
results: both paths read each link's cached share ``cap / n`` (the
division the reference repeats for every flow on every re-rate) and take
a pairwise float64 min, and arm completion timers in the same
``sorted(fids)`` order, so simulated schedules cannot depend on which
path ran.

Randomized flow scenarios (seeded — failures reproduce) drive three
solvers over identical op streams and compare every completion time,
abort outcome, and mid-run utilization probe for exact float equality:

* ``ReferenceFluidNetwork`` — the pre-vectorization implementation,
  embedded here (dict-based, per-flow Python loops recomputing every
  share, every re-arm a kernel ``timeout()`` and its predecessor
  ``cancel()``ed, where the current solver keeps its completion entries
  in a heap of its own; its utilization sums live rates in fid order, as
  the current solver's does);
* the current ``FluidNetwork`` pinned to the scalar path
  (``_VECTOR_MIN`` huge);
* the current ``FluidNetwork`` pinned to the vector path
  (``_VECTOR_MIN = 1``).
"""

import random
from collections import Counter
from typing import Hashable

import pytest

from repro.simnet import SimEngine
from repro.simnet.fluid import _FINISH_SLACK_BYTES, FluidNetwork


class _RefFlow:
    __slots__ = ("fid", "links", "remaining", "rate", "last", "gen", "done", "timer")

    def __init__(self, fid, links, nbytes, done):
        self.fid = fid
        self.links = links
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last = 0.0
        self.gen = 0
        self.done = done
        self.timer = None


class ReferenceFluidNetwork:
    """The scalar fluid solver as it stood before vectorization."""

    def __init__(self, env):
        self.env = env
        self.flows = {}
        self.link_flows = {}
        self.link_caps = {}
        self.completed = 0
        self._next_fid = 0

    def transfer(self, links, nbytes):
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = self.env.event()
        if nbytes == 0:
            done.succeed()
            return done
        keys = []
        for key, cap in links:
            if cap <= 0:
                raise ValueError(f"link capacity must be positive, got {cap}")
            if key not in self.link_caps:
                self.link_caps[key] = float(cap)
                self.link_flows[key] = set()
            keys.append(key)
        flow = _RefFlow(self._next_fid, tuple(keys), nbytes, done)
        self._next_fid += 1
        flow.last = self.env.now
        self.flows[flow.fid] = flow
        affected = self._affected(keys)
        for key in keys:
            self.link_flows[key].add(flow.fid)
        self._rerate(affected | {flow.fid})
        return done

    def abort_flows(self, link_pred, exc_factory):
        victims = [
            flow
            for flow in self.flows.values()
            if any(link_pred(key) for key in flow.links)
        ]
        for flow in sorted(victims, key=lambda f: f.fid):
            del self.flows[flow.fid]
            for key in flow.links:
                self.link_flows[key].discard(flow.fid)
            flow.gen += 1
            self._cancel_timer(flow)
            flow.done.fail(exc_factory())
        if victims:
            affected = set()
            for flow in victims:
                affected |= self._affected(flow.links)
            self._rerate(affected)
        return len(victims)

    def utilization(self, link):
        cap = self.link_caps.get(link)
        if not cap:
            return 0.0
        flows = self.link_flows[link]
        return sum(self.flows[fid].rate for fid in sorted(flows)) / cap

    def _affected(self, keys):
        out = set()
        for key in keys:
            out |= self.link_flows.get(key, set())
        return out

    def _touch(self, flow):
        now = self.env.now
        dt = now - flow.last
        if dt > 0:
            flow.remaining -= flow.rate * dt
            if flow.remaining < 0:
                flow.remaining = 0.0
        flow.last = now

    def _rerate(self, fids):
        touched = []
        for fid in sorted(fids):
            flow = self.flows.get(fid)
            if flow is None:
                continue
            self._touch(flow)
            touched.append(flow)
        for flow in touched:
            rate = min(
                self.link_caps[key] / len(self.link_flows[key])
                for key in flow.links
            )
            flow.rate = rate
            flow.gen += 1
            self._arm(flow)

    def _cancel_timer(self, flow):
        if flow.timer is not None:
            self.env.cancel(flow.timer)
            flow.timer = None

    def _arm(self, flow):
        self._cancel_timer(flow)
        if flow.rate <= 0:
            return
        horizon = flow.remaining / flow.rate
        timer = self.env.timeout(max(horizon, 0.0))
        gen = flow.gen
        timer.add_callback(lambda ev, f=flow, g=gen: self._on_timer(f, g))
        flow.timer = timer

    def _on_timer(self, flow, gen):
        if gen != flow.gen or flow.fid not in self.flows:
            return
        flow.timer = None
        self._touch(flow)
        if flow.remaining > max(_FINISH_SLACK_BYTES, flow.rate * 1e-9):
            flow.gen += 1
            self._arm(flow)
            return
        del self.flows[flow.fid]
        for key in flow.links:
            self.link_flows[key].discard(flow.fid)
        self.completed += 1
        flow.done.succeed()
        self._rerate(self._affected(flow.links))


def _random_scenario(rng):
    """One op stream: links with fixed caps, transfers, aborts, probes."""
    links = {}
    for node in range(rng.randint(3, 6)):
        for lane in ("tx", "rx"):
            links[(node, lane)] = rng.choice([1e6, 2.5e6, 1e7, 4e7])
    keys = sorted(links)
    ops = []
    t = 0.0
    for i in range(rng.randint(30, 80)):
        t += rng.expovariate(3.0)
        roll = rng.random()
        if roll < 0.85:
            # Mostly wire-shaped two-link flows, some 1- and 3-link ones.
            n_links = rng.choice([1, 2, 2, 2, 2, 3])
            chosen = rng.sample(keys, n_links)
            nbytes = rng.choice([512.0, 4096.0, 65536.0, 1.5e6, 2**20 + 17])
            ops.append(("transfer", t, i, [(k, links[k]) for k in chosen], nbytes))
        elif roll < 0.93:
            ops.append(("abort", t, i, rng.choice(keys)))
        else:
            ops.append(("probe", t, i))
    return keys, ops


def _run_scenario(net_factory, keys, ops, marks=(), fence=None):
    """Drive one solver through the op stream; return the observable log.

    Each instant in ``marks`` also gets unrelated timers that log when
    they fire and how many flows are still active: one taken before
    anything starts, and one more taken right after every flow start and
    every flow outcome before it (so after the re-rate that step caused).
    ``fence(net)``, if given, runs after every op and every flow outcome.
    """
    env = SimEngine()
    net = net_factory(env)
    log = []

    def mark(name):
        # The flow count tells whether a completion due now has fired yet.
        return lambda ev: log.append(("mark", name, env.now, len(net.flows)))

    def arm_marks(tag):
        now = env.now
        for i, when in enumerate(marks):
            if when > now and now + (when - now) == when:
                env.timeout(when - now).add_callback(mark((tag, i)))

    def record(tag):
        def cb(ev):
            log.append(("done" if ev._ok else "failed", tag, env.now))
            arm_marks(tag)
            if fence is not None:
                fence(net)

        return cb

    def fire(op):
        def cb(ev):
            if op[0] == "transfer":
                _, _, tag, links, nbytes = op
                net.transfer(links, nbytes).add_callback(record(tag))
                arm_marks(tag)
            elif op[0] == "abort":
                _, _, tag, key = op
                n = net.abort_flows(lambda k: k == key, RuntimeError)
                log.append(("abort", tag, env.now, n))
            else:
                _, _, tag = op
                util = tuple(net.utilization(k) for k in keys)
                log.append(("probe", tag, env.now, util))
            if fence is not None:
                fence(net)

        return cb

    for i, when in enumerate(marks):
        env.timeout(when).add_callback(mark(("start", i)))
    for op in ops:
        env.timeout(op[1]).add_callback(fire(op))
    env.run()
    assert not net.flows
    log.append(("completed", net.completed))
    return log


def _scalar_net(env):
    net = FluidNetwork(env)
    net._VECTOR_MIN = 10**9
    return net


def _vector_net(env):
    net = FluidNetwork(env)
    net._VECTOR_MIN = 1
    return net


def _share_fence(net):
    """Every occupied link's cached share is the division a re-rate used
    to repeat, and its numpy mirror holds the same float."""
    for link in net.links.values():
        assert link.fids <= net.flows.keys()
        if link.fids:
            assert link.share == link.cap / len(link.fids)
            assert net._shares_arr[link.idx] == link.share


@pytest.mark.parametrize("seed", range(10))
def test_randomized_streams_bit_identical(seed):
    rng = random.Random(seed)
    keys, ops = _random_scenario(rng)
    ref = _run_scenario(ReferenceFluidNetwork, keys, ops)
    scalar = _run_scenario(_scalar_net, keys, ops, fence=_share_fence)
    vector = _run_scenario(_vector_net, keys, ops, fence=_share_fence)
    # Exact equality end to end: same outcomes, same float completion
    # times, same utilization probes — no approx.
    assert scalar == ref
    assert vector == ref


def test_vector_path_actually_ran():
    # Guard against the suite silently comparing scalar to scalar.
    rng = random.Random(1234)
    keys, ops = _random_scenario(rng)
    env = SimEngine()
    net = _vector_net(env)
    for op in ops:
        if op[0] == "transfer":
            env.timeout(op[1]).add_callback(
                lambda ev, o=op: net.transfer(o[3], o[4]).add_callback(lambda e: None)
            )
    env.run()
    assert net._c_vector_batches.value > 0
    assert net._c_rerate_calls.value == net._c_vector_batches.value


def test_default_threshold_mixes_paths():
    # With the production threshold, small batches stay scalar and large
    # ones vectorize; both must coexist in one run without drift.
    rng = random.Random(99)
    keys, ops = _random_scenario(rng)
    # The random stream alone never builds a batch of _VECTOR_MIN flows:
    # a burst of simultaneous starts on one TX/RX pair (then a probe)
    # mid-stream does, amid the stream's small batches.
    t = ops[len(ops) // 2][1]
    pair = [(keys[0], 1e7), (keys[1], 1e7)]
    ops = ops + [("transfer", t, f"burst{i}", pair, 65536.0) for i in range(12)]
    ops.append(("probe", t, "after-burst"))
    ref = _run_scenario(ReferenceFluidNetwork, keys, ops)
    nets = []

    def tracked(env):
        nets.append(FluidNetwork(env))
        return nets[-1]

    mixed = _run_scenario(tracked, keys, ops, fence=_share_fence)
    assert mixed == ref
    (net,) = nets
    assert 0 < net._c_vector_batches.value < net._c_rerate_calls.value


def _tie_scenario(rng):
    """Waves of identical two-link flows over links of one capacity, each
    wave started at one instant (dyadic sizes and times, so equal
    completions compute to equal floats)."""
    cap = float(2**20)
    n_nodes = rng.randint(3, 5)
    keys = sorted((node, lane) for node in range(n_nodes) for lane in ("tx", "rx"))
    ops = []
    for wave, start in enumerate((0.0, 0.0625, 0.1875)[: rng.randint(2, 3)]):
        for i in range(rng.randint(3, 8)):
            src, dst = rng.sample(range(n_nodes), 2)
            links = [((src, "tx"), cap), ((dst, "rx"), cap)]
            ops.append(("transfer", start, f"w{wave}f{i}", links, float(2**16)))
    return keys, ops


@pytest.mark.parametrize("seed", range(6))
def test_tie_heavy_streams_match_reference(seed):
    # A completion entry reserves its kernel key when its flow is re-rated
    # but reaches the kernel heap only once it is the earliest. Unrelated
    # timers on exactly the completion instants, taken before the entry's
    # key and after it but before the entry was pushed, must interleave
    # with the completions as under the reference, which pushes every
    # re-arm through timeout() + cancel().
    keys, ops = _tie_scenario(random.Random(seed))
    instants = sorted(
        {e[2] for e in _run_scenario(ReferenceFluidNetwork, keys, ops) if e[0] == "done"}
    )
    ref = _run_scenario(ReferenceFluidNetwork, keys, ops, instants)
    done_at = Counter(e[2] for e in ref if e[0] == "done")
    assert max(done_at.values()) > 1  # completions tie with each other
    assert sum(e[0] == "mark" for e in ref) > len(instants)  # and with later timers
    for net in (_scalar_net, _vector_net, FluidNetwork):
        assert _run_scenario(net, keys, ops, instants) == ref
