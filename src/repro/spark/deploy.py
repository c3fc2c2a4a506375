"""Simulated Spark cluster: master/driver/workers/executors on simnet.

This module deploys a Spark-shaped cluster onto the discrete-event
simulator and executes :class:`~repro.harness.profile.WorkloadProfile`
stages on it. The **shuffle data plane is fully real**: reduce tasks open
block streams with RPCs and fetch chunks through Netty channels (with the
transport under test — NIO, RDMA, MPI-Basic, MPI-Optimized), with Spark's
``maxBytesInFlight`` windowing. Control-plane chatter (task launch RPCs)
is modeled as a fixed per-task dispatch delay — it is the same across all
transports and negligible against the paper's stage times.

For the MPI transports, the cluster comes up through the paper's Fig-3
flow: wrapper ranks are "mpiexec"-launched (workers + master + driver in
``MPI_COMM_WORLD``), executor launch specs are allgathered across the
world, and executors are spawned with ``MPI_Comm_spawn_multiple`` so that
executor↔executor channels bind to ``DPM_COMM`` and parent↔executor
channels to the intercommunicator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Iterable, Iterator, Sequence

import numpy as np

from repro.core.endpoint import MpiEndpoint
from repro.core.handshake import HandshakeError
from repro.harness.profile import (
    ComputeStage,
    ShuffleReadStage,
    ShuffleWriteStage,
    WorkloadProfile,
)
from repro.harness.systems import SystemConfig
from repro.mpi.dpm import SpawnSpec
from repro.mpi.errors import MPIError, WorldAbortedError
from repro.mpi.runtime import RankSpec
from repro.netty.eventloop import EventLoopGroup
from repro.simnet.engine import SimEngine
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.simnet.resources import SlotGate
from repro.simnet.sockets import SocketAddress, SocketError
from repro.simnet.topology import LinkDown, SimCluster
from repro.spark.network import (
    FetchFailedException,
    OneForOneStreamManager,
    RpcHandler,
    TransportClientFactory,
    TransportContext,
    TransportError,
)
from repro.transports import make_transport
from repro.util.units import MiB, US

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.registry import MetricsSnapshot

SHUFFLE_PORT_BASE = 7400

# One OpenBlocks RPC creates fetch requests of at most this size
# (Spark: maxSizeInFlight / 5 = 48 MiB / 5).
TARGET_REQUEST_BYTES = int(48 * MiB / 5)

# Residual per-block client-side bookkeeping not covered by the wire model
# (block manager lookups, iterator advancement).
PER_BLOCK_CLIENT_S = 0.8 * US
# Extra header bytes per additional block aggregated into one chunk.
PER_BLOCK_WIRE_BYTES = 48

# Collective shuffle exchanges draw matching tags upward from here so they
# never collide with the small per-handle collective sequence numbers.
_COLL_TAG_BASE = 1 << 20

# Failures a reduce task converts into FetchFailedException (the Spark
# scheduler's stage-resubmission trigger). WorldAbortedError is excluded:
# an aborted MPI world means the whole job is gone, not one map output.
_FETCHABLE_ERRORS = (
    TransportError,
    HandshakeError,
    SocketError,
    MPIError,
    LinkDown,
)


class JobFailedError(RuntimeError):
    """The job could not complete: its deadline passed or, under a fault
    plan, recovery gave up."""


class ShuffleOpenBlocksHandler(RpcHandler):
    """Server side of OneForOneBlockFetcher's OpenBlocks RPC.

    Request: ``("open_blocks", nbytes, n_blocks)`` — multi-tenant clients
    append their application namespace as a fourth element, which scopes
    the registered stream to that app (swept on app completion). Registers
    an :class:`_OpenStream` whose chunks split the requested bytes into
    ≤ TARGET_REQUEST_BYTES pieces; replies ``(stream_id, chunk wire sizes,
    chunk block counts)``, both sequences read off that one descriptor.
    """

    def __init__(self, streams: OneForOneStreamManager) -> None:
        self.streams = streams
        self.opens_served = 0

    def receive(self, client_channel, payload, reply):
        kind, nbytes, n_blocks = payload[:3]
        owner = payload[3] if len(payload) > 3 else None
        if kind != "open_blocks":
            raise ValueError(f"unexpected rpc {kind!r}")
        self.opens_served += 1
        stream = _OpenStream(max(int(nbytes), 0), int(n_blocks))
        stream_id = self.streams.register_stream(stream, owner=owner)
        reply((stream_id, stream, _BlockCounts(stream)), 64)


class _OpenStream:
    """One open OpenBlocks stream: ``nbytes`` in ``n_blocks`` blocks, cut
    into ``n_chunks`` chunks of at most TARGET_REQUEST_BYTES (one empty
    chunk for zero bytes), the blocks spread evenly with the first chunks
    taking the remainder.

    Each chunk's size and block count is integer arithmetic on these three
    ints, so an open stream holds no per-chunk list, as Spark's OpenBlocks
    reply is ``StreamHandle(streamId, numChunks)``. The descriptor is the
    stream manager's chunk provider (size-only chunks, released after
    chunk ``n_chunks - 1``), and as a sequence it is its chunks' wire
    sizes: bytes plus a header per block past the chunk's first.
    """

    __slots__ = ("nbytes", "n_blocks", "n_chunks")

    def __init__(self, nbytes: int, n_blocks: int) -> None:
        self.nbytes = nbytes
        self.n_blocks = n_blocks
        self.n_chunks = -(-nbytes // TARGET_REQUEST_BYTES) or 1

    def __len__(self) -> int:
        return self.n_chunks

    def __getitem__(self, index: int) -> int:
        # Plain operators, not min/max/divmod: this runs twice per chunk.
        n = self.n_chunks
        if index < 0 or index >= n:
            raise IndexError(index)
        n_blocks = self.n_blocks
        extra_blocks = n_blocks // n - (index >= n_blocks % n)
        size = self.nbytes - index * TARGET_REQUEST_BYTES
        if size > TARGET_REQUEST_BYTES:
            size = TARGET_REQUEST_BYTES
        if extra_blocks > 0:
            size += extra_blocks * PER_BLOCK_WIRE_BYTES
        return size

    def __call__(self, chunk_index: int, num_blocks: int) -> tuple[Any, int]:
        return None, self[chunk_index]


class _BlockCounts:
    """An :class:`_OpenStream`'s per-chunk block counts, as a sequence."""

    __slots__ = ("stream",)

    def __init__(self, stream: _OpenStream) -> None:
        self.stream = stream

    def __len__(self) -> int:
        return self.stream.n_chunks

    def __getitem__(self, index: int) -> int:
        stream = self.stream
        n = stream.n_chunks
        if index < 0 or index >= n:
            raise IndexError(index)
        n_blocks = stream.n_blocks
        return n_blocks // n + (index < n_blocks % n)


def _round_robin(opened: list, first: int) -> Iterator[tuple]:
    """Chunk requests ``(client, stream_id, idx, size, blk, src)`` of the
    ``(client, stream_id, sizes, blocks, src)`` streams in ``opened``,
    drawn lazily: chunk 0 of every stream starting at ``opened[first]``,
    then chunk 1 of those that have one, and so on (``zip_longest`` over
    the rotated per-stream chunk sequences)."""
    rotated = opened[first:] + opened[:first]
    lengths = [len(entry[2]) for entry in rotated]
    for idx in range(max(lengths, default=0)):
        for (client, stream_id, sizes, blocks, src), n in zip(rotated, lengths):
            if idx < n:
                yield client, stream_id, idx, sizes[idx], blocks[idx], src


class _TaskMetrics:
    """One namespace's task/shuffle-read counters (Spark's task metrics).

    The default (anonymous) namespace keeps the historical
    ``spark.scheduler.*`` names so single-application runs publish exactly
    the metric census the committed figure goldens pin; each job-server
    application gets its own ``spark.app.<ns>.scheduler.*`` bundle.
    """

    __slots__ = (
        "tasks", "compute", "write", "fetch_wait", "combine",
        "remote_bytes", "local_bytes",
    )

    def __init__(self, m, prefix: str) -> None:
        self.tasks = m.counter(f"{prefix}.tasks_finished")
        self.compute = m.counter(f"{prefix}.compute_s")
        self.write = m.counter(f"{prefix}.write_s")
        self.fetch_wait = m.counter(f"{prefix}.fetch_wait_s")
        self.combine = m.counter(f"{prefix}.combine_s")
        self.remote_bytes = m.counter(f"{prefix}.remote_fetch_bytes")
        self.local_bytes = m.counter(f"{prefix}.local_read_bytes")


@dataclass
class AppHandle:
    """Per-application execution context on a multi-tenant cluster.

    Everything that :mod:`repro.spark.deploy` historically kept global to
    the (single) driver becomes per-application through this handle: the
    RNG namespace (``seed`` is derived from ``(cluster seed, app id)``, so
    an app's stochastic choices are identical however many neighbours it
    shares the cluster with), the metrics namespace, the inter-job
    scheduler's concurrency grant (``gate``), and the executor subset the
    app may run tasks on.
    """

    app_id: int
    name: str
    seed: int
    namespace: str  # metrics/stream namespace, e.g. "app3"
    gate: "Any | None" = None  # SlotGate enforcing the current slot grant
    executor_ids: tuple[int, ...] | None = None  # None = whole cluster


class SimExecutor:
    """One executor JVM: event loop, shuffle server, pooled clients."""

    def __init__(
        self,
        sim: "SparkSimCluster",
        exec_id: int,
        node_index: int,
        endpoint: MpiEndpoint | None,
    ) -> None:
        self.sim = sim
        self.exec_id = exec_id
        self.node = sim.cluster.node(node_index)
        self.endpoint = endpoint
        self.cores = sim.cores_per_executor
        self.cost = sim.cost
        transport = sim.transport
        # Spark's transport pools run several IO threads; channels spread
        # over them so one blocked handler (the Optimized design's MPI_Recv)
        # does not stall every connection.
        n_io = min(sim.io_threads, max(1, self.cores // 2))
        self.loops = EventLoopGroup(
            [transport.make_loop(f"exec{exec_id}-io{i}", endpoint) for i in range(n_io)]
        )
        self.loop = self.loops.loops[0]  # acceptor / boss loop
        self.streams = OneForOneStreamManager()
        self.rpc_handler = ShuffleOpenBlocksHandler(self.streams)
        self.context = TransportContext(
            transport.data_stack,
            rpc_handler=self.rpc_handler,
            stream_manager=self.streams,
            pipeline_hook=transport.pipeline_hook,
        )
        self.client_factory = TransportClientFactory(self.context, self.loops, self.node)
        self.server = None
        # Task slots: polling transports burn whole cores with spinning
        # selector threads (polling_tax_cores = total per executor).
        tax = min(transport.polling_tax_cores, n_io)
        effective = max(1, self.cores - tax)
        self.slots = SlotGate(sim.env, capacity=effective)
        self.bytes_fetched_remote = 0
        self.bytes_read_local = 0
        # Default fetch-request rotation: advances once per fetch_shuffle call.
        self._fetch_seq = 0
        # Cluster-wide scheduler metrics (get-or-create: all executors
        # aggregate into the same counters), mirroring Spark's
        # shuffle-read/task metrics. Job-server applications publish into
        # their own ``spark.app.<ns>.scheduler.*`` bundles instead.
        self._tm = sim.task_metrics(None)

    @property
    def address(self) -> SocketAddress:
        return SocketAddress(self.node.name, SHUFFLE_PORT_BASE + self.exec_id)

    def start(self) -> None:
        self.loops.start()
        self.server = self.context.create_server(
            self.loop, self.node, SHUFFLE_PORT_BASE + self.exec_id, child_group=self.loops
        )

    def stop(self) -> None:
        self.loops.stop()

    # -- the shuffle read client path ---------------------------------------
    def _get_client(self, remote: "SimExecutor") -> Generator:
        client = yield from self.client_factory.get_client(remote.address)
        if self.sim.transport.uses_mpi and "mpi_binding" not in client.channel.attributes:
            yield from self.sim.transport.establish(client.channel, self.endpoint)
        return client

    def _metrics_for(self, app: AppHandle | None) -> _TaskMetrics:
        return self._tm if app is None else self.sim.task_metrics(app.namespace)

    def fetch_shuffle(
        self,
        sources: Iterable[tuple["SimExecutor", int, int]],
        trace_parent=None,
        app: AppHandle | None = None,
        rot: int | None = None,
    ) -> Generator:
        """Fetch ``(src, nbytes, n_blocks)`` from each source, windowed.

        Implements ShuffleBlockFetcherIterator's in-flight byte window:
        chunk requests are issued while the outstanding total stays under
        the cost model's ``max_bytes_in_flight``; completions release
        window space.

        ``rot`` pins the fetch-request rotation explicitly (multi-tenant
        runs derive it from the application's RNG namespace so one job's
        fetch order never depends on how its neighbours interleave); the
        default keeps the historical per-executor sequence.
        """
        env = self.sim.env
        tm = self._metrics_for(app)
        owner = None if app is None else app.namespace
        if self.endpoint is not None and self.endpoint.proc.world.aborted:
            # The executor's MPI library is gone (MPI_ERRORS_ARE_FATAL):
            # no retry can help — fail the job, not the fetch.
            raise WorldAbortedError("MPI world aborted; executor cannot shuffle")
        # Open streams (one RPC per source executor).
        # (client, stream_id, chunk wire sizes, chunk block counts, source)
        opened: list[tuple[Any, int, Sequence[int], Sequence[int], "SimExecutor"]] = []
        for src, nbytes, n_blocks in sources:
            if nbytes <= 0:
                continue
            try:
                client = yield from self._get_client(src)
                open_req = (
                    ("open_blocks", nbytes, n_blocks)
                    if owner is None
                    else ("open_blocks", nbytes, n_blocks, owner)
                )
                reply = yield client.send_rpc(
                    open_req, 64, trace_parent=trace_parent
                )
            except WorldAbortedError:
                raise
            except FetchFailedException:
                raise
            except _FETCHABLE_ERRORS as exc:
                raise FetchFailedException(
                    src.address, str(exc), exec_id=src.exec_id
                ) from exc
            stream_id, sizes, blocks = reply
            opened.append((client, stream_id, sizes, blocks, src))
        # Interleave requests across sources, rotated per call — Spark
        # randomizes fetch-request order (ShuffleBlockFetcherIterator) so
        # synchronized reducers don't all hammer the same server at once.
        # The order is drawn one request ahead of issue, never built whole.
        if rot is None:
            self._fetch_seq += 1
            rot = self._fetch_seq + self.exec_id
        first = rot % len(opened) if opened else 0
        order = _round_robin(opened, first)
        nxt = next(order, None)

        # future -> (size, blocks, source executor)
        pending: dict[Any, tuple[int, int, "SimExecutor"]] = {}
        window = self.cost.max_bytes_in_flight
        in_flight = 0
        park = None  # the event this task waits on, until a chunk decides it

        def on_chunk_done(future) -> None:
            # The one callback a chunk future ever carries: the first to
            # run while a park waits decides it.
            nonlocal park
            if park is not None:
                waiting, park = park, None
                if future.ok:
                    waiting.succeed()
                else:
                    waiting.fail(future.value)

        while nxt is not None or pending:
            while nxt is not None and (not pending or in_flight + nxt[3] <= window):
                client, stream_id, idx, size, blk, src = nxt
                try:
                    future = client.fetch_chunk(
                        stream_id, idx, num_blocks=blk, trace_parent=trace_parent
                    )
                except WorldAbortedError:
                    raise
                except _FETCHABLE_ERRORS as exc:
                    raise FetchFailedException(
                        src.address, str(exc), exec_id=src.exec_id
                    ) from exc
                future.add_callback(on_chunk_done)
                pending[future] = (size, blk, src)
                in_flight += size
                nxt = next(order, None)
            if not pending:
                break
            wait = park = env.event()
            for future in pending:
                if future.callbacks is None:
                    # Processed while this task was busy: decided on the spot.
                    on_chunk_done(future)
                    break
            try:
                yield wait
            except WorldAbortedError:
                raise
            except _FETCHABLE_ERRORS as exc:
                # Attribute the failure to the source whose future failed.
                src = next(
                    (s for f, (_, _, s) in pending.items() if f.triggered and not f.ok),
                    opened[first][4],
                )
                raise FetchFailedException(
                    src.address, str(exc), exec_id=src.exec_id
                ) from exc
            for future in [f for f in pending if f.triggered]:
                size, blk, src = pending.pop(future)
                in_flight -= size
                self.bytes_fetched_remote += size
                tm.remote_bytes.value += size
                if blk > 1:
                    yield env.timeout((blk - 1) * PER_BLOCK_CLIENT_S)

    def collective_fetch(
        self,
        exchange,
        peers: "list[SimExecutor]",
        remote_bytes: float,
        app: AppHandle | None = None,
    ) -> Generator:
        """Collective-transport stand-in for :meth:`fetch_shuffle`.

        Under ``mpi-coll`` the stage's whole traffic matrix moves in one
        alltoallv (:class:`~repro.transports.mpi_coll.CollectiveShuffleExchange`)
        started at the stage boundary; each reduce task just waits on the
        shared exchange here.  Exchange failures surface exactly like
        per-block fetch failures: a dead participant becomes a
        :class:`FetchFailedException` attributed to that executor (stage
        resubmission), a world abort stays fatal to the job.
        """
        tm = self._metrics_for(app)
        if self.endpoint is not None and self.endpoint.proc.world.aborted:
            raise WorldAbortedError("MPI world aborted; executor cannot shuffle")
        try:
            yield from exchange.wait()
        except WorldAbortedError:
            raise
        except _FETCHABLE_ERRORS as exc:
            idx = exchange.failed_member()
            src = peers[idx] if idx is not None and idx < len(peers) else None
            raise FetchFailedException(
                self.address if src is None else src.address,
                str(exc),
                exec_id=None if src is None else src.exec_id,
            ) from exc
        if remote_bytes > 0:
            self.bytes_fetched_remote += int(remote_bytes)
            tm.remote_bytes.value += remote_bytes

    # -- the task body and its accounting envelope --------------------------
    def task_body(
        self,
        stage,
        t: int,
        peers: "list[SimExecutor]",
        col: int,
        exchange=None,
        tm: _TaskMetrics | None = None,
        ctx=None,
        app: AppHandle | None = None,
        rot: int | None = None,
    ) -> Generator:
        """The simulated work of task ``t`` of ``stage`` on this executor.

        This is the only place a task's time is spent, for every driver:
        the caller already holds the slot. Returns the task's phase
        seconds (the ``task.finish`` attributes). ``tm`` receives the
        per-phase task metrics; the recovery scheduler passes none.

        ``peers``/``col`` define a read task's shuffle geometry:
        ``stage.fetch_bytes[t][i]`` is the traffic sourced from
        ``peers[i]``, and column ``col`` (this executor's index in
        ``peers``) is the local read. ``exchange`` (collective transports
        only) is the stage attempt's shared
        :class:`CollectiveShuffleExchange`: instead of issuing per-block
        fetches the task waits on it — its fetch-wait is the time until
        the stage's one alltoallv completes.
        """
        env = self.sim.env
        delay = self.cost.task_sched_delay_s
        if not isinstance(stage, ShuffleReadStage):
            if not isinstance(stage, (ComputeStage, ShuffleWriteStage)):
                raise TypeError(f"unknown stage type {type(stage)}")
            compute = (
                float(stage.seconds_per_task[t]) * self.sim.transport.compute_inflation
            )
            write = 0.0
            if isinstance(stage, ShuffleWriteStage):
                write = float(stage.write_bytes_per_task[t]) / self.cost.ramdisk_write_Bps
            yield env.timeout(delay + compute + write)
            phases = {"compute_s": compute}
            if tm is not None:
                tm.compute.value += compute
            if isinstance(stage, ShuffleWriteStage):
                phases["write_s"] = write
                if tm is not None:
                    tm.write.value += write
            return phases
        yield env.timeout(delay)
        # Fetch wait mirrors Spark's shuffle-read "fetch wait time":
        # everything between scheduling and the first combine byte.
        t_fetch = env.now
        fetch_bytes, blocks = stage.fetch_bytes[t], stage.blocks[t]
        # Local blocks: straight off the RAM disk.
        local = float(fetch_bytes[col])
        local_read = 0.0
        if local > 0:
            self.bytes_read_local += int(local)
            if tm is not None:
                tm.local_bytes.value += local
            local_read = local / self.cost.ramdisk_read_Bps
            yield env.timeout(local_read)
        # Remote blocks: through the transport under test.
        if exchange is not None:
            remote = float(sum(fetch_bytes[i] for i in range(len(peers)) if i != col))
            yield from self.collective_fetch(exchange, peers, remote, app=app)
        else:
            # Dead sources are NOT filtered here: fetching from them is
            # what raises FetchFailedException, triggering recovery.
            sources = (
                (src, int(fetch_bytes[i]), int(blocks[i]))
                for i, src in enumerate(peers)
                if i != col and fetch_bytes[i] > 0
            )
            yield from self.fetch_shuffle(sources, trace_parent=ctx, app=app, rot=rot)
        fetch_wait = env.now - t_fetch
        if tm is not None:
            tm.fetch_wait.value += fetch_wait
        combine = (
            float(stage.combine_seconds_per_task[t]) * self.sim.transport.compute_inflation
        )
        yield env.timeout(combine)
        if tm is not None:
            tm.combine.value += combine
        return {"fetch_wait_s": fetch_wait, "combine_s": combine, "local_s": local_read}

    def run_task(
        self,
        stage,
        t: int,
        label: str,
        peers: "list[SimExecutor]",
        col: int,
        exchange=None,
        app: AppHandle | None = None,
        rot: int | None = None,
    ) -> Generator:
        """One accounted task: app gate → slot → :meth:`task_body`.

        The envelope owns everything around the body that the fault-free
        and multi-tenant drivers publish: the application's concurrency
        grant, the task metrics and the causal ``task.start``/``task.finish``
        root. Both claims are made inside the ``try``
        so an interrupt delivered while the task still queues for either
        one withdraws it instead of leaking a grant to a dead process.
        """
        env = self.sim.env
        tm = self._metrics_for(app)
        gate = None if app is None else app.gate
        grant = slot = None
        try:
            if gate is not None:
                grant = gate.request()
                yield grant
            slot = self.slots.request()
            yield slot
            ctx = None
            if env.causal.enabled:
                ctx = env.causal.mint()
                env.causal.event("task.start", ctx, task=label, exec=self.exec_id)
            phases = yield from self.task_body(
                stage, t, peers, col, exchange, tm=tm, ctx=ctx, app=app, rot=rot
            )
            tm.tasks.value += 1.0
            if ctx is not None:
                env.causal.event(
                    "task.finish", ctx, task=label, exec=self.exec_id, **phases
                )
        finally:
            if slot is not None:
                self.slots.cancel(slot)
            if grant is not None:
                gate.cancel(grant)


@dataclass
class RunResult:
    """Timing breakdown of one profile execution."""

    workload: str
    transport: str
    system: str
    n_workers: int
    total_cores: int
    stage_seconds: dict[str, float] = field(default_factory=dict)
    launch_seconds: float = 0.0
    # End-of-run metrics snapshot; populated when the cluster ran with
    # observability enabled (``obs_enabled=True``).
    metrics: "MetricsSnapshot | None" = None
    # Causal flight recording; populated under ``obs_causal=True``.
    # The recorder is env-free, so results (and their flight logs) survive
    # the pickling round-trip through the parallel harness workers.
    flight: "FlightRecorder | None" = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def shuffle_read_seconds(self) -> float:
        """Time of the shuffle-read stage (the paper's last Job*-ResultStage)."""
        reads = [
            secs
            for label, secs in self.stage_seconds.items()
            if "ResultStage" in label or label.endswith("read")
        ]
        return reads[-1] if reads else 0.0


class SparkSimCluster:
    """A deployed (simulated) Spark cluster bound to one transport."""

    def __init__(
        self,
        system: SystemConfig,
        n_workers: int,
        transport_name: str,
        cores_per_executor: int | None = None,
        io_threads: int = 8,
        seed: int = 0,
        mpi_fault_mode: str = "abort",
        obs_enabled: bool = False,
        obs_trace: bool = False,
        obs_causal: bool = False,
        cost: CostModel = DEFAULT_COST,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.system = system
        # The calibrated off-wire costs every part of the cluster reads.
        self.cost = cost
        self.n_workers = n_workers
        self.io_threads = io_threads
        self.seed = int(seed)
        self.mpi_fault_mode = mpi_fault_mode
        # ``obs_causal`` implies the metric columns: a recording without
        # the columns that explain it is rarely what anyone wants.
        # ``obs_trace`` is kept for bench/'s span cell only: it turns the
        # metric columns on and records nothing.
        self.obs_enabled = obs_enabled or obs_trace or obs_causal
        self.obs_causal = obs_causal
        self.env = SimEngine()
        if obs_causal:
            from repro.obs.causal import CausalTracer

            self.env.causal = CausalTracer(self.env)
        # workers on nodes [0, W); master on node W; driver on node W+1.
        self.cluster = SimCluster(
            self.env,
            system.fabric,
            n_nodes=n_workers + 2,
            cores_per_node=system.cores_per_node,
        )
        self.transport = make_transport(
            transport_name, self.env, self.cluster, loaded=True,
            fault_mode=mpi_fault_mode, cost=cost,
        )
        self.cores_per_executor = cores_per_executor or system.threads_per_node
        self.executors: list[SimExecutor] = []
        self.launch_seconds = 0.0
        self._launched = False
        self._shutdown = False
        # Collective shuffle (mpi-coll): each stage boundary's exchange
        # draws a cluster-unique matching tag from this counter so
        # concurrent exchanges (multi-tenant apps, resubmitted stage
        # attempts) can never cross-match on the shared DPM communicator.
        self._coll_tag_seq = itertools.count()
        # Multi-tenant state: registered applications and their metric
        # bundles (the anonymous bundle keeps the legacy names).
        self.apps: dict[int, AppHandle] = {}
        self._task_metric_bundles: dict[str | None, _TaskMetrics] = {}
        # Attribute cache traffic to this cluster: the estimate_size shape
        # memo and the sample-trace memo keep process-global tallies, so
        # snapshot hooks publish deltas since cluster construction under
        # one ``cache.*`` namespace (surfaced via RunResult.metrics).
        from repro.harness.runcache import run_cache_stats
        from repro.harness.tracecache import trace_cache_stats
        from repro.util.serialization import size_cache_stats

        m = self.env.metrics
        c_size_hits = m.counter("cache.size.hits")
        c_size_misses = m.counter("cache.size.misses")
        base_hits, base_misses = size_cache_stats()
        trace_counters = {
            "hits": m.counter("cache.trace.hits"),
            "sample_runs": m.counter("cache.trace.sample_runs"),
        }
        # Names from the deleted trace disk tier, registered at zero so a
        # cached cell's pickle keeps its size: bench/ compares
        # harness.runcache.bytes_written exactly, and only a
        # benchmark-only PR may re-baseline it (ROADMAP item 4(iii)).
        for name in ("misses", "bytes_read", "bytes_written"):
            m.counter(f"cache.trace.{name}")
        trace_base = trace_cache_stats()
        # The run cache wraps whole cell simulations, so its traffic
        # happens *around* cluster lifetimes (a warm cell never builds a
        # cluster at all). Deltas since construction would always be
        # zero; publish process-lifetime absolutes instead. Like
        # cache.trace.*, these depend on cache temperature and are
        # excluded from the figure-row metric census.
        run_counters = {
            "hits": m.counter("cache.run.hits"),
            "misses": m.counter("cache.run.misses"),
            "cell_runs": m.counter("cache.run.cell_runs"),
            "bytes_read": m.counter("cache.run.bytes_read"),
            "bytes_written": m.counter("cache.run.bytes_written"),
        }

        def _publish_cache_stats() -> None:
            hits, misses = size_cache_stats()
            c_size_hits.value = float(hits - base_hits)
            c_size_misses.value = float(misses - base_misses)
            stats = trace_cache_stats()
            for name, counter in trace_counters.items():
                counter.value = float(stats[name] - trace_base[name])
            rstats = run_cache_stats()
            rstats["hits"] = rstats["hits_mem"] + rstats["hits_disk"]
            for name, counter in run_counters.items():
                counter.value = float(rstats[name])

        m.on_snapshot(_publish_cache_stats)

    # -- cluster bring-up ---------------------------------------------------------
    def launch(self) -> None:
        """Bring the cluster up (Fig-3 flow for the MPI transports)."""
        if self._launched:
            raise RuntimeError("cluster already launched")
        t0 = self.env.now
        if self.transport.uses_mpi:
            self._launch_with_mpi()
        else:
            for i in range(self.n_workers):
                self.executors.append(SimExecutor(self, i, i, None))
        for ex in self.executors:
            ex.start()
        self.env.run(until=self.env.now + 0.5)  # let servers/loops settle
        self.launch_seconds = self.env.now - t0
        self._launched = True

    def _launch_with_mpi(self) -> None:
        """Paper Sec. V: wrapper ranks, allgather of specs, DPM spawn."""
        world = self.transport.mpi_world
        assert world is not None
        W = self.n_workers
        executor_procs: dict[int, Any] = {}
        done = self.env.event()
        parents_ready = {"count": 0}

        def executor_main(proc):
            # Executors idle as MPI ranks; their matching engines serve the
            # Netty MPI transport.
            executor_procs[len(executor_procs)] = proc
            yield proc.env.timeout(0)

        def wrapper_main(proc):
            comm = proc.comm_world
            rank = comm.rank
            if rank < W:
                my_spec = SpawnSpec(main=executor_main, node=rank, count=1, name="executor")
            else:
                my_spec = None  # master (rank W) and driver (rank W+1)
            # "an MPI_allgather was used across the workers to gather all
            # the different arguments used for launching the executors"
            all_specs = yield from comm.allgather(my_spec)
            specs = [s for s in all_specs if s is not None]
            intercomm = yield from comm.spawn_multiple(
                specs if rank == 0 else None, root=0
            )
            proc.spawn_intercomm = intercomm
            parents_ready["count"] += 1
            if parents_ready["count"] == W + 2 and not done.triggered:
                done.succeed()

        specs = [RankSpec(main=wrapper_main, node=i, name="worker") for i in range(W)]
        specs.append(RankSpec(main=wrapper_main, node=W, name="master"))
        specs.append(RankSpec(main=wrapper_main, node=W + 1, name="driver"))
        world.launch(specs, comm_name="MPI_COMM_WORLD")
        self.env.run(until=done)

        # Executor gid order == spawn order == worker rank order.
        procs = sorted(executor_procs.values(), key=lambda p: p.gid)
        if len(procs) != W:
            raise RuntimeError(f"expected {W} executors, got {len(procs)}")
        for i, proc in enumerate(procs):
            self.executors.append(SimExecutor(self, i, i, MpiEndpoint(proc)))

    # -- multi-tenant surface -----------------------------------------------------
    def task_metrics(self, namespace: str | None) -> _TaskMetrics:
        """The task-metric bundle for one app namespace (None = legacy)."""
        bundle = self._task_metric_bundles.get(namespace)
        if bundle is None:
            prefix = (
                "spark.scheduler"
                if namespace is None
                else f"spark.app.{namespace}.scheduler"
            )
            bundle = _TaskMetrics(self.env.metrics, prefix)
            self._task_metric_bundles[namespace] = bundle
        return bundle

    def register_app(
        self,
        app_id: int,
        name: str | None = None,
        gate: Any | None = None,
        executor_ids: tuple[int, ...] | None = None,
    ) -> AppHandle:
        """Admit an application namespace onto this cluster.

        The handle's seed is derived from ``(cluster seed, app id)`` —
        nothing else — so every per-app stochastic stream replays
        identically regardless of which other applications share the
        cluster or how their events interleave.
        """
        from repro.util.rng import derive_seed

        if app_id in self.apps:
            raise ValueError(f"app id {app_id} already registered")
        app = AppHandle(
            app_id=app_id,
            name=name or f"app{app_id}",
            seed=derive_seed(self.seed, "app", app_id),
            namespace=f"app{app_id}",
            gate=gate,
            executor_ids=executor_ids,
        )
        self.apps[app_id] = app
        return app

    def app_executors(self, app: AppHandle | None) -> list[SimExecutor]:
        if app is None or app.executor_ids is None:
            return self.executors
        return [self.executors[i] for i in app.executor_ids]

    def release_app(self, app: AppHandle) -> None:
        """Sweep an application's executor-side shuffle state (streams)."""
        for ex in self.executors:
            ex.streams.release_owner(app.namespace)
        self.apps.pop(app.app_id, None)

    def run_application(
        self, profile: WorkloadProfile, app: AppHandle
    ) -> Generator:
        """Run ``profile`` as one tenant application (a simulation process).

        Unlike :meth:`run_profile` — which *drives* the engine and
        therefore owns the whole cluster — this is a generator to be
        wrapped in ``env.process``: many applications can execute
        concurrently, contending for executor slots under their
        ``AppHandle`` grants. Returns the app's ``{stage label: seconds}``
        dict; stream state is swept on exit (normal or aborted).
        """
        if self._shutdown:
            raise RuntimeError("cluster is shut down")
        if not self._launched:
            raise RuntimeError("launch() the cluster before running applications")
        try:
            return (yield from self._stage_loop(profile, app=app))
        finally:
            self.release_app(app)

    # -- profile execution -------------------------------------------------------
    def run_profile(
        self,
        profile: WorkloadProfile,
        run_stage=None,
        deadline_s: float | None = None,
    ) -> RunResult:
        """Drive ``profile`` to completion on the whole cluster.

        ``run_stage`` replaces the stage step (a generator function of one
        stage): the default runs every task once and waits;
        :class:`~repro.faults.recovery.ResilientScheduler` passes its
        retry/resubmission policy. A job still running ``deadline_s``
        simulated seconds from now fails with :class:`JobFailedError`.
        """
        if not self._launched:
            self.launch()
        result = RunResult(
            workload=profile.name,
            transport=self.transport.name,
            system=self.system.name,
            n_workers=self.n_workers,
            total_cores=self.n_workers * self.cores_per_executor,
            launch_seconds=self.launch_seconds,
        )
        env = self.env
        causal = env.causal
        if causal.enabled:
            # Self-describing trace header: everything the what-if replay
            # engine needs to rebuild its model from an exported JSONL log
            # (repro.obs.whatif) without the live cluster object, plus the
            # provenance keys the diff engine (repro.obs.diff) aligns and
            # sanity-checks two recordings on (seed, stage/task census).
            mpi_world = getattr(self.transport, "mpi_world", None)
            causal.event(
                "run.meta", None,
                workload=profile.name,
                transport=self.transport.name,
                system=self.system.name,
                n_workers=self.n_workers,
                cores_per_executor=self.cores_per_executor,
                slots_per_executor=self.executors[0].slots.capacity,
                rendezvous_threshold=(
                    0 if mpi_world is None else int(mpi_world.model.rendezvous_threshold)
                ),
                seed=self.seed,
                n_stages=len(profile.stages),
                n_tasks=sum(s.n_tasks for s in profile.stages),
                compute_inflation=float(self.transport.compute_inflation),
            )
        job = env.process(
            self._stage_loop(profile, run_stage=run_stage), name="driver-job"
        )
        if deadline_s is None:
            env.run(until=job)
        else:
            env.run(until=env.any_of([job, env.timeout(deadline_s)]))
            if not job.triggered:
                raise JobFailedError(f"job exceeded deadline of {deadline_s:g}s")
        result.stage_seconds = job.value
        if self.obs_enabled:
            result.metrics = env.metrics.snapshot()
        if causal.enabled:
            result.flight = causal.flight
        return result

    def _stage_loop(
        self,
        profile: WorkloadProfile,
        app: AppHandle | None = None,
        run_stage=None,
    ) -> Generator:
        """The one stage loop: run each stage in turn, timing it.

        Every driver — :meth:`run_profile`, :meth:`run_application`, the
        recovery scheduler — executes this generator; they differ only in
        the ``run_stage`` step (default :meth:`_run_stage`). Returns the
        ``{stage label: seconds}`` dict.
        """
        n_exec = len(self.app_executors(app))
        if profile.n_executors != n_exec:
            raise ValueError(
                f"profile built for {profile.n_executors} executors, "
                + (
                    f"cluster has {n_exec}"
                    if app is None
                    else f"app {app.app_id} granted {n_exec}"
                )
            )
        env = self.env
        prefix = "" if app is None else f"{app.name}:"
        stage_seconds: dict[str, float] = {}
        for stage in profile.stages:
            label = prefix + stage.label
            t0 = env.now
            env.causal.event("stage.start", None, stage=label, n_tasks=stage.n_tasks)
            if run_stage is None:
                yield from self._run_stage(stage, app)
            else:
                yield from run_stage(stage)
            stage_seconds[stage.label] = env.now - t0
            env.causal.event(
                "stage.finish", None,
                stage=label, seconds=stage_seconds[stage.label],
            )
        return stage_seconds

    def _run_stage(self, stage, app: AppHandle | None = None) -> Generator:
        """Default stage step: every task once, at its preferred executor."""
        from repro.util.rng import derive_seed

        executors = self.app_executors(app)
        n_exec = len(executors)
        prefix = "" if app is None else f"{app.name}:"
        # Collective transports: all map→reduce bytes start moving now and
        # every reduce task below just waits on this shared exchange.
        exchange = self.stage_exchange(stage, executors, app=app)
        # Per-app fetch rotation: a pure function of (app seed, stage,
        # task), never of a shared mutable counter — one tenant's fetch
        # order is interleaving-independent.
        seeded_rot = app is not None and isinstance(stage, ShuffleReadStage)
        procs = []
        for t in range(stage.n_tasks):
            task_label = f"{prefix}{stage.label}-task{t}"
            rot = (
                derive_seed(app.seed, "fetch", stage.label, t) % 65536
                if seeded_rot
                else None
            )
            gen = executors[t % n_exec].run_task(
                stage, t, task_label, executors, t % n_exec, exchange,
                app=app, rot=rot,
            )
            procs.append(self.env.process(gen, name=task_label))
        yield self.env.all_of(procs)

    def stage_exchange(
        self,
        stage,
        executors: "list[SimExecutor]",
        tasks=None,
        placement: dict[int, int] | None = None,
        app: AppHandle | None = None,
    ):
        """A stage attempt's shared alltoallv exchange, or None.

        None unless ``stage`` is a shuffle read on a collective transport
        — the one place that decision is made. Otherwise aggregates the
        :class:`ShuffleReadStage` fetch matrix over its reduce tasks into
        an executor-pair byte matrix and launches a
        :class:`~repro.transports.mpi_coll.CollectiveShuffleExchange`
        over the executors' DPM communicator.  ``tasks``/``placement``
        restrict and re-home the aggregation (the resilient scheduler's
        per-attempt view: only still-pending tasks, moved onto
        survivors); the defaults cover every task at its preferred
        ``t % n_exec`` executor.  The matching tag is cluster-unique so
        concurrent exchanges never cross-match.
        """
        if not (
            isinstance(stage, ShuffleReadStage) and self.transport.collective_shuffle
        ):
            return None
        n = len(executors)
        totals = np.zeros((n, n), dtype=float)
        task_ids = range(stage.n_tasks) if tasks is None else tasks
        for t in task_ids:
            d = (t % n) if placement is None else placement[t]
            totals[d] += stage.fetch_bytes[t]
        np.fill_diagonal(totals, 0.0)  # local reads never ride the wire
        label = ("" if app is None else f"{app.name}:") + stage.label
        # User tags live in [0, MAX_TAG); collective handles draw small
        # sequence numbers, so exchange tags start high to stay disjoint.
        tag = (_COLL_TAG_BASE + next(self._coll_tag_seq)) % (1 << 24)
        members = [
            (ex.endpoint.proc.comm_world.rank, ex.endpoint.proc)
            for ex in executors
        ]
        return self.transport.start_exchange(label, members, totals, tag)

    def shutdown(self) -> None:
        """Tear the cluster down; idempotent and safe mid-application.

        Applications still in flight are abandoned where they stand (the
        engine simply stops being driven); their executor-side stream
        state is invalidated and any open causal spans are tombstoned, so
        no flight recording ends with a dangling send. A second call is a
        no-op.
        """
        if self._shutdown:
            return
        self._shutdown = True
        for ex in self.executors:
            ex.stop()
        if self.apps:
            # In-flight tenants: their future fetches must fail fast, not
            # hang on streams nobody will serve.
            for ex in self.executors:
                ex.streams.invalidate_all("cluster shutdown")
            self.apps.clear()
        # Final causal sweep: spans still open here were sent to endpoints
        # that died without a channel teardown (or were in flight when an
        # abort unwound the run) — tombstone them so no trace ends with a
        # dangling send.  Clean runs have nothing open and record nothing.
        causal = self.env.causal
        if causal.enabled and causal.flight.open_spans():
            causal.abort("cluster shutdown", terminal="run.end")
