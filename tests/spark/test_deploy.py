"""Integration tests for the simulated Spark cluster deployment."""

import gc
import itertools
import random
import types
from collections import deque
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.endpoint import CommBinding
from repro.core.handshake import MpiHandshakeHandler
from repro.core.mpi_netty import (
    MpiBasicEventLoop,
    MpiBodyReceiveHandler,
    NotifyingHandshakeHandler,
)
from repro.harness.profile import (
    ComputeStage,
    ShuffleReadStage,
    ShuffleWriteStage,
    WorkloadProfile,
)
from repro.harness.systems import FRONTERA, INTERNAL_CLUSTER
from repro.mpi.envelope import Envelope
from repro.netty.channel import ChannelId
from repro.netty.handler import HandlerContext
from repro.netty.pipeline import ChannelPipeline, _HeadHandler, _TailHandler
from repro.netty.selector import SelectionKey, Selector
from repro.simnet.resources import SlotGate
from repro.simnet.sockets import Segment, SimSocket
from repro.spark.deploy import (
    PER_BLOCK_WIRE_BYTES,
    TARGET_REQUEST_BYTES,
    ShuffleOpenBlocksHandler,
    SparkSimCluster,
)
from repro.spark.network import (
    MessageDecoder,
    MessageEncoder,
    OneForOneStreamManager,
    TransportClient,
    TransportRequestHandler,
    TransportResponseHandler,
)
from repro.transports import TRANSPORTS
from repro.util.units import GiB, MiB
from repro.workloads.ohb import GROUP_BY


def tiny_profile(n_exec, cores=4, shuffle_bytes=64 * MiB):
    n_tasks = n_exec * cores
    fetch = np.full((n_tasks, n_exec), shuffle_bytes / (n_tasks * n_exec))
    blocks = np.ones((n_tasks, n_exec), dtype=np.int64)
    return WorkloadProfile(
        name="tiny",
        nominal_bytes=shuffle_bytes,
        n_executors=n_exec,
        cores_per_executor=cores,
        stages=[
            ComputeStage("gen", np.full(n_tasks, 0.01)),
            ShuffleWriteStage(
                "write", np.full(n_tasks, 0.005), np.full(n_tasks, shuffle_bytes / n_tasks)
            ),
            ShuffleReadStage("read", fetch, blocks, np.full(n_tasks, 0.002)),
        ],
    )


class TestClusterBringUp:
    @pytest.mark.parametrize("transport", ["nio", "rdma", "mpi-opt", "mpi-basic"])
    def test_launch_all_transports(self, transport):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, transport, cores_per_executor=4)
        sim.launch()
        assert len(sim.executors) == 2
        if sim.transport.uses_mpi:
            assert all(ex.endpoint is not None for ex in sim.executors)
            # Executors are DPM children with a parent intercomm (Fig 3).
            for ex in sim.executors:
                assert ex.endpoint.proc.comm_world.name == "DPM_COMM"
                assert ex.endpoint.proc.parent_comm is not None
        sim.shutdown()

    def test_double_launch_rejected(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", cores_per_executor=2)
        sim.launch()
        with pytest.raises(RuntimeError):
            sim.launch()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SparkSimCluster(FRONTERA, 0, "nio")

    def test_executor_placement_one_per_worker_node(self):
        sim = SparkSimCluster(FRONTERA, 3, "nio", cores_per_executor=4)
        sim.launch()
        assert [ex.node.index for ex in sim.executors] == [0, 1, 2]


class TestProfileExecution:
    @pytest.mark.parametrize("transport", ["nio", "rdma", "mpi-opt", "mpi-basic"])
    def test_runs_all_stages(self, transport):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, transport, cores_per_executor=4)
        sim.launch()
        result = sim.run_profile(tiny_profile(2))
        assert set(result.stage_seconds) == {"gen", "write", "read"}
        assert all(v > 0 for v in result.stage_seconds.values())
        assert result.transport == sim.transport.name
        sim.shutdown()

    def test_wrong_executor_count_rejected(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", cores_per_executor=4)
        sim.launch()
        with pytest.raises(ValueError, match="built for"):
            sim.run_profile(tiny_profile(4))

    def test_shuffle_bytes_actually_move(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", cores_per_executor=4)
        sim.launch()
        profile = tiny_profile(2, shuffle_bytes=64 * MiB)
        sim.run_profile(profile)
        remote = sum(ex.bytes_fetched_remote for ex in sim.executors)
        # Half the fetch matrix is remote (2 executors).
        assert remote == pytest.approx(32 * MiB, rel=0.05)
        local = sum(ex.bytes_read_local for ex in sim.executors)
        assert local == pytest.approx(32 * MiB, rel=0.05)

    def test_transport_ordering_on_shuffle(self):
        times = {}
        for transport in ("nio", "rdma", "mpi-opt"):
            sim = SparkSimCluster(INTERNAL_CLUSTER, 2, transport, cores_per_executor=4)
            sim.launch()
            result = sim.run_profile(tiny_profile(2, shuffle_bytes=512 * MiB))
            times[transport] = result.stage_seconds["read"]
            sim.shutdown()
        assert times["mpi-opt"] < times["rdma"] < times["nio"]

    def test_mpi_basic_polling_tax_reduces_slots(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "mpi-basic", cores_per_executor=8)
        sim.launch()
        opt = SparkSimCluster(INTERNAL_CLUSTER, 2, "mpi-opt", cores_per_executor=8)
        opt.launch()
        assert (
            sim.executors[0].slots.capacity < opt.executors[0].slots.capacity
        )

    def test_deterministic_given_same_inputs(self):
        def run():
            sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "mpi-opt", cores_per_executor=4)
            sim.launch()
            return sim.run_profile(tiny_profile(2)).stage_seconds

        assert run() == run()

    def test_run_result_helpers(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", cores_per_executor=4)
        sim.launch()
        result = sim.run_profile(tiny_profile(2))
        assert result.total_seconds == pytest.approx(
            sum(result.stage_seconds.values())
        )
        assert result.shuffle_read_seconds() == result.stage_seconds["read"]


class TestTaskEnvelopeInterruptSafety:
    """An interrupted task gives back every claim it made or queued for.

    ``run_task`` claims the app gate and the executor slot inside its
    ``try``; before that, a task interrupted while still *waiting* for a
    slot was later granted one as a dead process and never released it.
    """

    @staticmethod
    def _cluster():
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio", cores_per_executor=2)
        sim.launch()
        assert sim.executors[0].slots.capacity == 2
        return sim

    @staticmethod
    def _spawn(sim, n_tasks, app=None):
        from repro.simnet.events import Interrupt

        def join(proc):
            # The engine surfaces a process that dies unjoined; the
            # interrupted task's death is the scenario, not an error.
            try:
                yield proc
            except Interrupt:
                pass

        ex = sim.executors[0]
        stage = ComputeStage("gen", np.full(n_tasks, 0.01))
        procs = [
            sim.env.process(
                ex.run_task(stage, t, f"gen-task{t}", sim.executors, 0, app=app)
            )
            for t in range(n_tasks)
        ]
        for proc in procs:
            sim.env.process(join(proc))
        return procs

    def test_interrupt_while_queued_for_a_slot(self):
        sim = self._cluster()
        ex = sim.executors[0]
        procs = self._spawn(sim, 3)
        sim.env.run(until=sim.env.now + 1e-3)
        assert ex.slots.held == 2 and ex.slots.waiting == 1
        procs[2].interrupt("abandoned")
        sim.env.run(until=sim.env.all_of(procs[:2]))
        assert not procs[2].is_alive
        assert ex.slots.held == 0
        assert ex.slots.waiting == 0
        sim.shutdown()

    def test_interrupt_while_queued_for_the_app_gate(self):
        from repro.simnet.resources import SlotGate

        sim = self._cluster()
        ex = sim.executors[0]
        gate = SlotGate(sim.env, capacity=1)
        app = sim.register_app(1, gate=gate)
        procs = self._spawn(sim, 2, app=app)
        sim.env.run(until=sim.env.now + 1e-3)
        assert gate.held == 1 and gate.waiting == 1
        procs[1].interrupt("abandoned")
        sim.env.run(until=procs[0])
        assert not procs[1].is_alive
        assert gate.held == 0 and gate.waiting == 0
        assert ex.slots.held == 0 and ex.slots.waiting == 0
        sim.shutdown()

    def test_interrupt_holding_the_gate_but_queued_for_a_slot(self):
        from repro.simnet.resources import SlotGate

        sim = self._cluster()
        ex = sim.executors[0]
        fillers = self._spawn(sim, 2)  # ungated: occupy both slots
        gate = SlotGate(sim.env, capacity=1)
        (gated,) = self._spawn(sim, 1, app=sim.register_app(1, gate=gate))
        sim.env.run(until=sim.env.now + 1e-3)
        assert gate.held == 1 and ex.slots.waiting == 1
        gated.interrupt("abandoned")
        sim.env.run(until=sim.env.all_of(fillers))
        assert gate.held == 0 and gate.waiting == 0
        assert ex.slots.held == 0 and ex.slots.waiting == 0
        sim.shutdown()


class TestFetchShuffleWaits:
    """``fetch_shuffle`` parks on one plain event that its chunk futures
    decide, driven here through a stub client whose futures the test owns."""

    class StubClient:
        def __init__(self, env, sizes, blocks):
            self.env, self.sizes, self.blocks = env, sizes, blocks
            self.futures = []

        def send_rpc(self, payload, nbytes, trace_parent=None):
            return self.env.event().complete((7, self.sizes, self.blocks))

        def fetch_chunk(self, stream_id, idx, num_blocks=1, trace_parent=None):
            self.futures.append(self.env.event())
            return self.futures[-1]

    def _cluster(self, monkeypatch, chunks):
        """3 executors; executor 0 fetches ``chunks[exec_id]`` from 1 and 2."""
        sim = SparkSimCluster(INTERNAL_CLUSTER, 3, "nio", cores_per_executor=2)
        sim.launch()
        clients = {
            ex.exec_id: self.StubClient(sim.env, *chunks[ex.exec_id])
            for ex in sim.executors[1:]
        }

        def get_client(remote):
            return clients[remote.exec_id]
            yield

        monkeypatch.setattr(sim.executors[0], "_get_client", get_client)
        sources = [(ex, sum(chunks[ex.exec_id][0]), 1) for ex in sim.executors[1:]]
        fetch = sim.env.process(sim.executors[0].fetch_shuffle(sources, rot=0))
        return sim, clients, fetch

    def test_future_processed_while_busy_decides_the_next_wait_on_the_spot(
        self, monkeypatch
    ):
        from repro.simnet.events import Condition
        from repro.spark.deploy import PER_BLOCK_CLIENT_S

        built = []
        init = Condition.__init__
        monkeypatch.setattr(
            Condition, "__init__", lambda self, *a: (built.append(self), init(self, *a))[1]
        )
        sim, clients, fetch = self._cluster(
            monkeypatch, {1: ([10], [3]), 2: ([20], [1])}
        )
        env = sim.env

        def completions(env):
            yield env.timeout(1.0)
            clients[1].futures[0].succeed()
            # Lands, and is dispatched, inside the task's per-block charge
            # for the first chunk — while no wait exists to attach to.
            yield env.timeout(PER_BLOCK_CLIENT_S)
            clients[2].futures[0].succeed()

        t0 = env.now
        env.process(completions(env))
        env.run(until=fetch)
        assert env.now - t0 == pytest.approx(1.0 + 2 * PER_BLOCK_CLIENT_S)
        assert sim.executors[0].bytes_fetched_remote == 30
        assert built == []  # no AnyOf/AllOf per wait
        sim.shutdown()

    def test_failed_future_is_attributed_to_its_source(self, monkeypatch):
        from repro.spark.network import FetchFailedException, TransportError

        sim, clients, fetch = self._cluster(
            monkeypatch, {1: ([10, 10], [1, 1]), 2: ([20], [1])}
        )
        env = sim.env

        def completions(env):
            yield env.timeout(1.0)
            clients[1].futures[0].succeed()
            yield env.timeout(1.0)
            clients[2].futures[0].fail(TransportError("connection reset"))

        env.process(completions(env))
        with pytest.raises(FetchFailedException, match="connection reset") as failed:
            env.run(until=fetch)
        # Executor 1 heads the plan (the fallback attribution); the failed
        # future belongs to executor 2.
        assert failed.value.exec_id == 2
        assert failed.value.address == sim.executors[2].address
        sim.shutdown()

    def test_failure_processed_while_busy_still_fails_the_next_wait(self, monkeypatch):
        from repro.spark.deploy import PER_BLOCK_CLIENT_S
        from repro.spark.network import FetchFailedException, TransportError

        sim, clients, fetch = self._cluster(
            monkeypatch, {1: ([10], [3]), 2: ([20], [1])}
        )
        env = sim.env

        def completions(env):
            yield env.timeout(1.0)
            clients[1].futures[0].succeed()
            yield env.timeout(PER_BLOCK_CLIENT_S)
            clients[2].futures[0].fail(TransportError("peer died"))

        env.process(completions(env))
        with pytest.raises(FetchFailedException, match="peer died") as failed:
            env.run(until=fetch)
        assert failed.value.exec_id == 2
        sim.shutdown()


class TestLazyFetchOrder:
    """``fetch_shuffle`` draws its rotated round-robin request order one
    request ahead instead of building it whole. Driven by hand here: it
    must issue exactly the ``zip_longest`` plan it used to build, fill the
    window greedily and never past it, and blame a failure no future
    claims on the first source in rotated order."""

    class Source:
        def __init__(self, exec_id):
            self.exec_id, self.address = exec_id, f"exec{exec_id}"

    class StubClient:
        def __init__(self, env, src, sizes, issued):
            self.env, self.src, self.sizes, self.issued = env, src, sizes, issued

        def send_rpc(self, payload, nbytes, trace_parent=None):
            return ("reply", (7, self.sizes, [1] * len(self.sizes)))

        def fetch_chunk(self, stream_id, idx, num_blocks=1, trace_parent=None):
            future = self.env.event()
            self.issued.append((self.src.exec_id, idx, self.sizes[idx], future))
            return future

    @staticmethod
    def _plan(chunks, rot):
        """The fetch plan as the eager implementation built it."""
        per_source = [
            [(s, idx, size) for idx, size in enumerate(sizes)]
            for s, sizes in enumerate(chunks)
            if sizes
        ]
        r = rot % len(per_source) if per_source else 0
        per_source = per_source[r:] + per_source[:r]
        return [c for layer in itertools.zip_longest(*per_source) for c in layer if c]

    @settings(max_examples=200, deadline=None)
    @given(
        chunks=st.lists(st.lists(st.integers(1, 100), max_size=5), min_size=1, max_size=6),
        rot=st.integers(0, 50),
        window=st.integers(1, 300),
        rnd=st.randoms(use_true_random=False),
        fail_at_first_park=st.booleans(),
    )
    @example(
        chunks=[[60, 60, 60], [], [100], [10, 10]],
        rot=3,
        window=120,
        rnd=random.Random(0),
        fail_at_first_park=False,
    )
    def test_issues_the_eager_plan(self, chunks, rot, window, rnd, fail_at_first_park):
        from repro.simnet.engine import SimEngine
        from repro.spark.deploy import SimExecutor
        from repro.spark.network import FetchFailedException, TransportError

        env = SimEngine()
        issued: list = []
        sources = [self.Source(s) for s in range(len(chunks))]
        clients = {
            src.exec_id: self.StubClient(env, src, sizes, issued)
            for src, sizes in zip(sources, chunks)
        }

        def get_client(src):
            return clients[src.exec_id]
            yield

        counter = types.SimpleNamespace(value=0.0)
        executor = types.SimpleNamespace(
            sim=types.SimpleNamespace(env=env),
            endpoint=None,
            cost=types.SimpleNamespace(max_bytes_in_flight=window),
            _metrics_for=lambda app: types.SimpleNamespace(remote_bytes=counter),
            _get_client=get_client,
            bytes_fetched_remote=0,
        )
        plan = self._plan(chunks, rot)
        fetch = SimExecutor.fetch_shuffle(
            executor,
            ((src, sum(sizes), len(sizes)) for src, sizes in zip(sources, chunks)),
            rot=rot,
        )
        outstanding: dict = {}  # future -> size, as the window counts it
        value, parks = None, 0
        while True:
            n_before = len(issued)
            try:
                yielded = fetch.send(value)
            except StopIteration:
                break
            value = None
            if isinstance(yielded, tuple):  # the OpenBlocks reply
                value = yielded[1]
                continue
            for src, idx, size, future in issued[n_before:]:
                assert not outstanding or sum(outstanding.values()) + size <= window
                outstanding[future] = size
            # Parked: the next request in the plan must not fit.
            assert outstanding
            if len(issued) < len(plan):
                assert sum(outstanding.values()) + plan[len(issued)][2] > window
            parks += 1
            if fail_at_first_park and parks == 1:
                with pytest.raises(FetchFailedException) as failed:
                    fetch.throw(TransportError("lost"))
                assert failed.value.exec_id == plan[0][0]
                return
            done = rnd.sample(list(outstanding), rnd.randint(1, len(outstanding)))
            for future in done:
                future.succeed()
                del outstanding[future]
        assert [(src, idx, size) for src, idx, size, _ in issued] == plan
        assert not outstanding
        assert executor.bytes_fetched_remote == sum(map(sum, chunks))


class TestOpenStreamDescriptor:
    """An OpenBlocks stream is one descriptor of three ints: its chunk wire
    sizes and block counts are arithmetic, and must equal the lists the
    server used to build per stream."""

    @staticmethod
    def _lists(nbytes, n_blocks):
        """The per-chunk (wire sizes, block counts) lists, built eagerly."""
        sizes = []
        remaining = nbytes
        while remaining > 0:
            take = min(remaining, TARGET_REQUEST_BYTES)
            sizes.append(take)
            remaining -= take
        if not sizes:
            sizes = [0]
        base, rem = divmod(n_blocks, len(sizes))
        blocks = [base + (1 if i < rem else 0) for i in range(len(sizes))]
        wire = [s + max(b - 1, 0) * PER_BLOCK_WIRE_BYTES for s, b in zip(sizes, blocks)]
        return wire, blocks

    @settings(max_examples=300, deadline=None)
    @given(
        nbytes=st.integers(0, 5 * TARGET_REQUEST_BYTES),
        n_blocks=st.integers(0, 2000),
    )
    @example(nbytes=0, n_blocks=3)
    def test_chunks_match_the_eager_lists(self, nbytes, n_blocks):
        streams = OneForOneStreamManager()
        replies = []
        ShuffleOpenBlocksHandler(streams).receive(
            None, ("open_blocks", nbytes, n_blocks), lambda r, n=0: replies.append(r)
        )
        [(stream_id, sizes, blocks)] = replies
        wire, counts = self._lists(nbytes, n_blocks)
        assert len(sizes) == len(blocks) == len(wire)
        assert [sizes[i] for i in range(len(sizes))] == wire
        assert [blocks[i] for i in range(len(blocks))] == counts
        assert list(sizes) == wire and list(blocks) == counts
        for i, (size, blk) in enumerate(zip(wire, counts)):
            assert stream_id in streams._streams  # open until its last chunk
            assert streams.get_chunk(stream_id, i, blk) == (None, size)
        assert stream_id not in streams._streams


def _reachable(root):
    """Every object reachable from ``root``, modules, classes and functions
    aside."""
    skip = (types.ModuleType, type, types.FunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if not isinstance(ref, skip) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)


def _finished_groupby_16w(transport):
    sim = SparkSimCluster(FRONTERA, 16, transport)
    sim.launch()
    sim.run_profile(GROUP_BY.build_profile(FRONTERA, 16, 4 * GiB, fidelity=0.05))
    return sim


class TestPerPairQueues:
    """The per-pair FIFOs (socket buffers, MPI pipes, matching buckets)
    are lists: an empty deque is a 760 B block, and a cluster has
    thousands of pairs. The only deques left are the executors' slot
    gates, one per executor."""

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_only_slot_gates_hold_deques(self, transport):
        sim = _finished_groupby_16w(transport)
        objs = list(_reachable(sim))
        gates = sum(isinstance(o, SlotGate) for o in objs)
        assert gates >= 16
        assert sum(isinstance(o, deque) for o in objs) == gates
        sim.shutdown()


class TestPerConnectionFootprint:
    """A connection costs what it carries (DESIGN §10 rule 8): socket
    connections exist for every executor pair, so the per-connection
    objects carry no ``__dict__``, stateless handlers are shared across
    pipelines, and an idle pump parks holding no message."""

    SLOTTED = (HandlerContext, SelectionKey, SimSocket, ChannelId, Segment, CommBinding)
    SHARED = (
        _HeadHandler, _TailHandler, MessageEncoder, MessageDecoder,
        MpiHandshakeHandler, NotifyingHandshakeHandler, MpiBodyReceiveHandler,
    )

    TRANSPORT_HANDLERS = (TransportClient, TransportResponseHandler, TransportRequestHandler)

    @pytest.fixture(scope="class", params=sorted(TRANSPORTS))
    def cell(self, request):
        """The finished cell, and its first OpenBlocks streams as served:
        (registered stream, reply payload)."""
        opens = []
        receive = ShuffleOpenBlocksHandler.receive

        def recording(handler, client_channel, payload, reply):
            def kept(answer, nbytes=0):
                if len(opens) < 64:
                    opens.append((handler.streams._streams[answer[0]], answer))
                reply(answer, nbytes)

            receive(handler, client_channel, payload, kept)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ShuffleOpenBlocksHandler, "receive", recording)
            sim = _finished_groupby_16w(request.param)
        yield request.param, sim, opens
        sim.shutdown()

    @pytest.fixture(scope="class")
    def objs(self, cell):
        transport, sim, _ = cell
        return transport, list(_reachable(sim))

    def test_slotted_classes_carry_no_dict(self, objs):
        transport, objs = objs
        found = {type(o) for o in objs if isinstance(o, self.SLOTTED)}
        assert SelectionKey in found  # every executor's acceptor
        if transport != "mpi-coll":  # the collective shuffle opens no channel
            assert {HandlerContext, SimSocket, ChannelId} <= found
        if transport in ("mpi-basic", "mpi-opt"):
            assert CommBinding in found
        assert not [o for o in objs if isinstance(o, self.SLOTTED) and hasattr(o, "__dict__")]

    def test_stateless_handlers_are_shared(self, objs):
        transport, objs = objs
        handlers: dict[type, set[int]] = {}
        for pipeline in (o for o in objs if isinstance(o, ChannelPipeline)):
            ctx = pipeline._head
            while ctx is not None:
                if type(ctx.handler) in self.SHARED:
                    handlers.setdefault(type(ctx.handler), set()).add(id(ctx.handler))
                ctx = ctx.next
        if transport != "mpi-coll":
            assert {_HeadHandler, _TailHandler, MessageEncoder, MessageDecoder} <= set(handlers)
        assert {cls: len(ids) for cls, ids in handlers.items()} == dict.fromkeys(handlers, 1)

    def test_no_message_outlives_its_delivery(self, objs):
        _, objs = objs
        assert not [o for o in objs if isinstance(o, (Segment, Envelope))]

    def test_transport_handlers_carry_no_dict(self, objs):
        transport, objs = objs
        found = {type(o) for o in objs if isinstance(o, self.TRANSPORT_HANDLERS)}
        if transport != "mpi-coll":
            assert found == set(self.TRANSPORT_HANDLERS)
        assert not [
            o for o in objs if isinstance(o, self.TRANSPORT_HANDLERS) and hasattr(o, "__dict__")
        ]

    def test_park_waiters_share_one_bound_signal(self, objs):
        _, objs = objs
        selectors = [o for o in objs if isinstance(o, Selector)]
        most = 0
        for selector in selectors:
            waiters = [key.waiter for key in selector.keys if key.waiter is not None]
            waiters += selector._park_waiters.values()
            signals = {
                id(cb)
                for waiter in waiters
                if waiter.callbacks
                for cb in waiter.callbacks
                if getattr(cb, "__self__", None) is selector
            }
            assert len(signals) <= 1
            most = max(most, sum(bool(w.callbacks) for w in waiters))
        assert most >= 2  # some selector has several pending waiters

    def test_open_streams_hold_no_list(self, cell):
        transport, _, opens = cell
        if transport != "mpi-coll":  # the collective shuffle opens no stream
            assert len(opens) == 64
        for stream, reply in opens:
            assert not [o for o in _reachable((stream, reply)) if isinstance(o, list)]

    def test_basic_loop_keeps_no_per_row_partial(self, objs):
        transport, objs = objs
        if transport == "mpi-basic":
            assert any(
                o._poll_cache for o in objs if isinstance(o, MpiBasicEventLoop)
            )
        assert not [o for o in objs if isinstance(o, partial)]
