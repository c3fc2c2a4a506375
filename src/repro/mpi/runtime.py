"""The MPI world: simulated ranks, routing, and the wire protocol.

:class:`MPIWorld` owns every simulated MPI process across all worlds
(``MPI_COMM_WORLD`` plus DPM-spawned child worlds), routes envelopes
through per-pair in-order *pipes* (giving MPI's non-overtaking guarantee),
and implements the eager/rendezvous protocol switch:

* **eager** (≤ ``WireModel.rendezvous_threshold``): the payload rides the
  envelope; the send completes after the sender-side overhead. Matching
  from the unexpected queue pays an extra buffering copy.
* **rendezvous**: the envelope is a small RTS; when the receiver matches it,
  a CTS returns and the bulk payload moves — so *when the receive is
  posted* directly shapes transfer latency. This is the semantics the
  MPI4Spark-Optimized design exploits by posting ``MPI_Recv`` from the
  header-parsing channel handler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.mpi.communicator import Comm, CommDescriptor, Group, Intercomm, Intracomm
from repro.mpi.envelope import RTS_BYTES, Envelope, Protocol
from repro.mpi.errors import MPIError, RankDeadError, WorldAbortedError
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG
from repro.simnet.engine import SimEngine
from repro.simnet.interconnect import WireModel
from repro.simnet.resources import Store
from repro.simnet.topology import LinkDown, MessageDropped, SimCluster, SimNode
from repro.util.serialization import sizeof
from repro.util.units import GiB

# Copying an eager payload out of the unexpected queue (bounce buffer).
UNEXPECTED_COPY_S_PER_BYTE = 1.0 / (8.0 * GiB)


class MPIProcess:
    """One simulated MPI rank (may belong to several communicators)."""

    def __init__(self, world: "MPIWorld", gid: int, node: SimNode, name: str) -> None:
        self.world = world
        self.gid = gid
        self.node = node
        self.name = name
        self.env = world.env
        self.alive = True
        self.matching = MatchingEngine(world.env, self._on_match, name=name)
        self.comm_world: Intracomm | None = None  # set by launch/spawn
        self.parent_comm: Intercomm | None = None  # set for DPM children
        self.sim_process = None  # the kernel Process running main()
        self._main: Callable[["MPIProcess"], Generator] | None = None
        # Every communicator handle this rank ever holds, keyed by context
        # id (both pt2pt and coll) — the failure machinery uses it to map a
        # (source rank, context) pair back to a global id.
        self._comm_descs: dict[int, CommDescriptor] = {}

    def _register_comm(self, desc: CommDescriptor) -> None:
        self._comm_descs[desc.ctx_pt2pt] = desc
        self._comm_descs[desc.ctx_coll] = desc

    def _peer_gid(self, source_rank: int, context_id: int) -> int | None:
        """Resolve a (rank, context) peer reference to a gid, if known."""
        desc = self._comm_descs.get(context_id)
        if desc is None:
            return None
        group = desc.remote_group or desc.local_group
        if 0 <= source_rank < group.size:
            return group.gid_of(source_rank)
        return None

    def _check_sendable(self, dst_gid: int) -> None:
        if self.world.aborted:
            raise WorldAbortedError(f"{self.name}: MPI world has aborted")
        if not self.alive:
            raise RankDeadError(f"{self.name} is dead")
        dst = self.world._procs.get(dst_gid)
        if dst is None or not dst.alive:
            name = dst.name if dst is not None else f"gid={dst_gid}"
            raise RankDeadError(f"{self.name}: peer {name} is dead")

    def start(self) -> None:
        """Begin executing this rank's main() as a simulation process."""
        if self._main is None:
            raise MPIError(f"{self.name} has no main function")
        if self.sim_process is not None:
            raise MPIError(f"{self.name} already started")
        self.sim_process = self.env.process(
            self._main(self), name=f"mpi:{self.name}"
        )

    # -- send side -----------------------------------------------------------
    def _send(
        self,
        dst_gid: int,
        src_rank: int,
        context_id: int,
        tag: int,
        payload: Any,
        nbytes: int | None,
        trace_ctx: Any = None,
    ) -> Generator:
        """Blocking send: eager returns after local overhead; rendezvous
        returns once the payload has been pulled by the receiver.

        Sends involving a dead peer (or an aborted world) raise
        :class:`RankDeadError` / :class:`WorldAbortedError` — MPI transports
        on lossless fabrics surface peer failure as an immediate error, not
        a timeout.
        """
        self._check_sendable(dst_gid)
        world = self.world
        model = world.model
        size = sizeof(payload) if nbytes is None else int(nbytes)
        overhead = world._send_cpu_memo.get(size)
        if overhead is None:
            overhead = world._send_cpu_memo[size] = model.sender_cpu_time(size)
        yield self.env.timeout(overhead)
        self._check_sendable(dst_gid)  # peer may have died during overhead
        self.world._c_send_bytes.inc(size)
        if size <= model.rendezvous_threshold:
            self.world._c_send_eager.inc()
            envl = Envelope(
                self.gid, src_rank, dst_gid, context_id, tag, payload, size,
                Protocol.EAGER, trace_ctx=trace_ctx,
            )
            self.world._route(envl)
            return
        self.world._c_send_rendezvous.inc()
        done = self.env.event()
        envl = Envelope(
            self.gid, src_rank, dst_gid, context_id, tag, payload, size,
            Protocol.RENDEZVOUS, send_done=done, trace_ctx=trace_ctx,
        )
        self.world._route(envl)
        yield done

    def _isend(
        self,
        dst_gid: int,
        src_rank: int,
        context_id: int,
        tag: int,
        payload: Any,
        nbytes: int | None,
        trace_ctx: Any = None,
    ) -> Request:
        req = Request(self.env, "send")
        size = sizeof(payload) if nbytes is None else int(nbytes)
        req.status.nbytes = size
        try:
            self._check_sendable(dst_gid)
        except MPIError as exc:
            req.event.fail(exc)
            return req

        def _run() -> Generator:
            yield from self._send(
                dst_gid, src_rank, context_id, tag, payload, size,
                trace_ctx=trace_ctx,
            )

        proc = self.env.process(_run(), name=f"isend:{self.name}")
        proc.add_callback(
            lambda ev: req.event.succeed() if ev.ok else req.event.fail(ev.value)
        )
        return req

    # -- recv side -----------------------------------------------------------
    def _irecv(self, source: int, tag: int, context_id: int) -> Request:
        req = Request(self.env, "recv")
        if self.world.aborted:
            req.event.fail(WorldAbortedError(f"{self.name}: MPI world has aborted"))
            return req
        if not self.alive:
            req.event.fail(RankDeadError(f"{self.name} is dead"))
            return req
        if source != ANY_SOURCE:
            # A receive naming an already-dead peer can never complete; fail
            # it now unless matching data is already queued.
            peer_gid = self._peer_gid(source, context_id)
            if (
                peer_gid is not None
                and peer_gid in self.world.dead
                and not self.matching.iprobe(source, tag, context_id)
            ):
                req.event.fail(
                    RankDeadError(f"{self.name}: recv from dead gid={peer_gid}")
                )
                return req
        self.matching.post_recv(source, tag, context_id, req)
        return req

    def _on_match(self, envl: Envelope, posted: PostedRecv, buffered: bool) -> None:
        """Matching engine found a (envelope, receive) pair: move the data."""
        model = self.world.model

        def _fail(exc: BaseException) -> None:
            if envl.send_done is not None and not envl.send_done.triggered:
                envl.send_done.fail(RankDeadError(str(exc)))
            if not posted.request.event.triggered:
                posted.request.event.fail(RankDeadError(str(exc)))

        def _complete() -> Generator:
            if envl.protocol is Protocol.RENDEZVOUS:
                src_proc = self.world.process(envl.src_gid)
                try:
                    # CTS back to the sender, then the bulk payload.
                    yield from self.world.cluster.wire_path(
                        self.node, src_proc.node, RTS_BYTES, model
                    )
                    yield from self.world.cluster.wire_path(
                        src_proc.node, self.node, envl.nbytes, model
                    )
                except (LinkDown, MessageDropped) as exc:
                    # A lost CTS/payload on the lossless fabric means the
                    # path itself failed: both sides complete in error.
                    _fail(exc)
                    return
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.succeed()
            world = self.world
            delay = world._recv_cpu_memo.get(envl.nbytes)
            if delay is None:
                delay = world._recv_cpu_memo[envl.nbytes] = (
                    model.receiver_cpu_time(envl.nbytes)
                )
            if buffered and envl.protocol is Protocol.EAGER:
                # Only eager payloads were actually parked in a bounce
                # buffer; a rendezvous RTS carries no data to copy.
                delay += envl.nbytes * UNEXPECTED_COPY_S_PER_BYTE
            yield self.env.timeout(delay)
            req = posted.request
            if req.event.triggered:
                return  # already failed by an abort/shrink sweep
            if self.world.aborted or not self.alive:
                req.event.fail(
                    WorldAbortedError(f"{self.name}: world aborted during recv")
                    if self.world.aborted
                    else RankDeadError(f"{self.name} died during recv")
                )
                return
            req.status.source = envl.src_rank
            req.status.tag = envl.tag
            req.status.nbytes = envl.nbytes
            req.event.succeed(envl.payload)

        self.env.process(_complete(), name=f"match:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MPIProcess {self.name} gid={self.gid} on {self.node.name}>"


class _Pipe:
    """In-order delivery channel for one (src, dst) process pair."""

    def __init__(self, world: "MPIWorld", src: MPIProcess, dst: MPIProcess) -> None:
        self.world = world
        self.src = src
        self.dst = dst
        self.store: Store = Store(world.env)
        world.env.process(self._pump(), name=f"pipe:{src.gid}->{dst.gid}")

    def _pump(self) -> Generator:
        while True:
            envl: Envelope = yield self.store.get()
            try:
                yield from self.world.cluster.wire_path(
                    self.src.node, self.dst.node, envl.wire_bytes(), self.world.model
                )
            except MessageDropped as exc:
                # MPI has no transport-level retransmit in this model: a
                # lost envelope on the "lossless" fabric escalates to a
                # fault (world abort or rank isolation per fault_mode) —
                # the blast-radius asymmetry vs. TCP's quiet RTO.
                self.world._on_envelope_lost(envl, exc)
                continue
            except LinkDown as exc:
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(RankDeadError(str(exc)))
                continue
            if not self.dst.alive:
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(
                        RankDeadError(f"{self.dst.name} died before delivery")
                    )
                continue
            self.dst.matching.deliver(envl)


@dataclass(frozen=True)
class RankSpec:
    """Where one rank runs and what it executes.

    ``main`` is a generator function called as ``main(proc)``; its return
    value becomes the rank's result.
    """

    main: Callable[[MPIProcess], Generator]
    node: int | str | SimNode
    name: str = "rank"


class MPIWorld:
    """Runtime owning all simulated MPI processes on one cluster.

    ``fault_mode`` picks the failure semantics the paper contrasts:

    * ``"abort"`` (default, MPI_ERRORS_ARE_FATAL): one dead rank aborts the
      whole runtime — every pending operation everywhere fails with
      :class:`WorldAbortedError`; this is what makes DPM-launched executors
      fragile.
    * ``"shrink"`` (ULFM-style): only operations naming the dead rank fail
      (:class:`RankDeadError`); survivors keep communicating.
    """

    def __init__(
        self,
        env: SimEngine,
        cluster: SimCluster,
        model: WireModel,
        fault_mode: str = "abort",
    ) -> None:
        if fault_mode not in ("abort", "shrink"):
            raise ValueError(f"fault_mode must be 'abort' or 'shrink', got {fault_mode!r}")
        self.env = env
        self.cluster = cluster
        self.model = model
        self.fault_mode = fault_mode
        self.aborted = False
        self.dead: set[int] = set()
        self.lost_envelopes = 0
        self._gids = itertools.count(0)
        self._procs: dict[int, MPIProcess] = {}
        self._pipes: dict[tuple[int, int], _Pipe] = {}
        cluster.link_state.on_change(self._on_link_event)
        # World-level traffic counters (repro.obs).
        m = env.metrics
        self._c_send_eager = m.counter("mpi.world.sends_eager")
        self._c_send_rendezvous = m.counter("mpi.world.sends_rendezvous")
        self._c_send_bytes = m.counter("mpi.world.send_bytes")
        # Pure-function memos over the (fixed) world model: per-message
        # CPU overheads keyed by payload size.
        self._send_cpu_memo: dict[int, float] = {}
        self._recv_cpu_memo: dict[int, float] = {}

    # -- registry ------------------------------------------------------------
    def process(self, gid: int) -> MPIProcess:
        try:
            return self._procs[gid]
        except KeyError:
            raise MPIError(f"no such MPI process gid={gid}") from None

    # -- failure machinery ---------------------------------------------------
    def _on_link_event(self, kind: str, payload) -> None:
        if kind != "node-failed":
            return
        node: SimNode = payload
        for proc in list(self._procs.values()):
            if proc.node is node and proc.alive:
                self.kill_process(proc.gid, reason=f"{node.name} failed")

    def kill_process(self, gid: int, reason: str = "killed") -> None:
        """Crash one rank; consequences follow :attr:`fault_mode`."""
        proc = self._procs.get(gid)
        if proc is None or not proc.alive:
            return
        proc.alive = False
        self.dead.add(gid)
        exc_factory = lambda: RankDeadError(f"{proc.name}: {reason}")  # noqa: E731
        # The dead rank's own pending operations die with it.
        proc.matching.fail_posted(lambda p: True, exc_factory)
        proc.matching.wake_probes_empty()
        self._drop_unexpected(proc, exc_factory)
        if self.fault_mode == "abort":
            self._abort_world(f"{proc.name} died ({reason})")
        else:
            self._shrink_after_death(proc)

    def _drop_unexpected(self, proc: MPIProcess, exc_factory) -> None:
        """Discard a dead rank's unexpected queue, erroring rendezvous senders."""
        for envl in proc.matching.unexpected:
            if envl.send_done is not None and not envl.send_done.triggered:
                envl.send_done.fail(exc_factory())
        proc.matching.drop_unexpected()

    def _abort_world(self, reason: str) -> None:
        if self.aborted:
            return
        self.aborted = True
        # Causal tracing: an abort orphans every in-flight span — close them
        # all with a terminal mpi.abort event so the flight log explains why.
        if self.env.causal.enabled:
            self.env.causal.abort(reason)
        exc_factory = lambda: WorldAbortedError(  # noqa: E731
            f"MPI world aborted: {reason}"
        )
        for proc in self._procs.values():
            if proc.alive:
                proc.alive = False
                self.dead.add(proc.gid)
            proc.matching.fail_posted(lambda p: True, exc_factory)
            proc.matching.wake_probes_empty()
            self._drop_unexpected(proc, exc_factory)
        for pipe in self._pipes.values():
            while pipe.store.items:
                envl = pipe.store.items.popleft()
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(exc_factory())

    def _shrink_after_death(self, dead: MPIProcess) -> None:
        """ULFM-style isolation: only ops naming the dead rank fail."""
        exc_factory = lambda: RankDeadError(f"{dead.name} died")  # noqa: E731
        for proc in self._procs.values():
            if proc is dead or not proc.alive:
                continue
            proc.matching.fail_posted(
                lambda p, proc=proc: (
                    p.source != ANY_SOURCE
                    and proc._peer_gid(p.source, p.context_id) == dead.gid
                ),
                exc_factory,
            )
        # Envelopes already queued toward or from the dead rank never land.
        for (src_gid, dst_gid), pipe in self._pipes.items():
            if dead.gid not in (src_gid, dst_gid):
                continue
            while pipe.store.items:
                envl = pipe.store.items.popleft()
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(exc_factory())

    def _on_envelope_lost(self, envl: Envelope, exc: MessageDropped) -> None:
        """A wire-level drop hit the MPI path (no retransmit layer here)."""
        self.lost_envelopes += 1
        if envl.send_done is not None and not envl.send_done.triggered:
            envl.send_done.fail(RankDeadError(f"envelope lost: {exc}"))
        if self.fault_mode == "abort":
            self._abort_world(f"message loss on the fabric ({exc})")

    def _route(self, envl: Envelope) -> None:
        key = (envl.src_gid, envl.dst_gid)
        pipe = self._pipes.get(key)
        if pipe is None:
            pipe = _Pipe(self, self.process(envl.src_gid), self.process(envl.dst_gid))
            self._pipes[key] = pipe
        pipe.store.put_nowait(envl)

    # -- world creation --------------------------------------------------------
    def create_processes(
        self, specs: list[RankSpec], comm_name: str
    ) -> tuple[list[MPIProcess], CommDescriptor]:
        """Allocate processes and a world communicator descriptor (no start)."""
        procs = []
        for spec in specs:
            gid = next(self._gids)
            node = self.cluster.node(spec.node)
            proc = MPIProcess(self, gid, node, f"{spec.name}#{gid}")
            proc._main = spec.main
            procs.append(proc)
        for proc in procs:
            self._procs[proc.gid] = proc
        desc = CommDescriptor(comm_name, Group([p.gid for p in procs]))
        for proc in procs:
            proc.comm_world = Intracomm(proc, desc)
        return procs, desc

    def launch(
        self, specs: list[RankSpec], comm_name: str = "MPI_COMM_WORLD"
    ) -> list[MPIProcess]:
        """mpiexec equivalent: start one simulated process per spec.

        Each rank's ``main(proc)`` generator starts immediately; results are
        available as ``proc.sim_process.value`` after ``env.run()``.
        """
        if not specs:
            raise MPIError("launch of zero ranks")
        procs, _ = self.create_processes(specs, comm_name)
        for proc in procs:
            proc.start()
        return procs

    def run(self, until: float | None = None) -> None:
        """Convenience wrapper over the engine's run()."""
        self.env.run(until=until)
