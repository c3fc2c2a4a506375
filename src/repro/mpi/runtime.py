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
from repro.simnet.engine import SimEngine
from repro.simnet.events import Event
from repro.simnet.interconnect import WireModel
from repro.simnet.resources import Store
from repro.simnet.topology import LinkDown, SimCluster, SimNode
from repro.util.serialization import sizeof
from repro.util.units import GiB

# Copying an eager payload out of the unexpected queue (bounce buffer).
UNEXPECTED_COPY_S_PER_BYTE = 1.0 / (8.0 * GiB)


class _SendDone(Event):
    """A nonblocking rendezvous send's ``send_done``: it names the request
    its dispatch settles, since whoever triggers it sets its value."""

    __slots__ = ("request",)

    def __init__(self, env: SimEngine, request: Request) -> None:
        super().__init__(env)
        self.request = request


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

    def _send_error(self, dst_gid: int) -> MPIError:
        """Why a send to ``dst_gid`` cannot go; asked only once a send
        step has seen that it cannot (world aborted, this rank or the
        peer dead or unknown)."""
        if self.world.aborted:
            return WorldAbortedError(f"{self.name}: MPI world has aborted")
        if not self.alive:
            return RankDeadError(f"{self.name} is dead")
        dst = self.world._procs.get(dst_gid)
        name = dst.name if dst is not None else f"gid={dst_gid}"
        return RankDeadError(f"{self.name}: peer {name} is dead")

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
        self._start_send(
            dst_gid, src_rank, context_id, tag, payload, size, trace_ctx, req
        )
        return req

    def _start_send(
        self,
        dst_gid: int,
        src_rank: int,
        context_id: int,
        tag: int,
        payload: Any,
        size: int,
        trace_ctx: Any = None,
        req: Request | None = None,
    ) -> None:
        """Nonblocking send as a callback chain (DESIGN §10 rule 7).

        The overhead timeout, pushed here, then :meth:`_on_send_overhead`,
        which re-checks both ranks and routes the envelope. With a
        ``req`` a termination hop settles it, scheduled right after
        routing if eager and from ``send_done``'s dispatch if rendezvous.
        Without one (the transports never read it) nothing is scheduled
        past routing and a failure goes unseen. Only :class:`MPIError`
        fails a request; anything else propagates out of ``run``.

        The message rides the timeout as its value, the tuple ``(dst,
        src_rank, context_id, tag, payload, size, trace_ctx, req)`` with
        ``dst`` the peer's :class:`MPIProcess`, resolved once here; one
        bound callback per step serves every message.
        """
        world = self.world
        dst = world._procs.get(dst_gid)
        if world.aborted or not self.alive or dst is None or not dst.alive:
            if req is not None:
                req.event.fail(self._send_error(dst_gid))
            return
        memo = world._send_cpu_memo
        overhead = memo.get(size)
        if overhead is None:
            overhead = memo[size] = world.model.sender_cpu_time(size)
        self.env.timeout(
            overhead,
            (dst, src_rank, context_id, tag, payload, size, trace_ctx, req),
        ).callbacks.append(self._on_send_overhead)

    def _on_send_overhead(self, event: Event) -> None:
        """The step after the send overhead: re-check both ranks (either
        may have died meanwhile), count, and route the envelope."""
        dst, src_rank, context_id, tag, payload, size, trace_ctx, req = event._value
        world = self.world
        if world.aborted or not self.alive or not dst.alive:
            self._end_send(req, self._send_error(dst.gid))
            return
        world._c_send_bytes.value += size
        done = None
        if size <= world.model.rendezvous_threshold:
            world._c_send_eager.value += 1.0
            protocol = Protocol.EAGER
        else:
            world._c_send_rendezvous.value += 1.0
            protocol = Protocol.RENDEZVOUS
            if req is not None:
                done = _SendDone(self.env, req)
                done.callbacks.append(self._on_send_done)
        world._route(Envelope(
            self.gid, src_rank, dst.gid, context_id, tag, payload, size,
            protocol, send_done=done, trace_ctx=trace_ctx,
        ))
        if done is None and req is not None:
            self._end_send(req, None)

    def _on_send_done(self, event: "_SendDone") -> None:
        self._end_send(event.request, None if event._ok else event._value)

    def _end_send(self, req: Request | None, exc: MPIError | None) -> None:
        """Schedule the termination hop that settles ``req``, if any."""
        if req is not None:
            end = Event(self.env)
            end.callbacks.append(self._on_send_end)
            end.succeed((req, exc))

    @staticmethod
    def _on_send_end(event: Event) -> None:
        req, exc = event._value
        if exc is None:
            req.event.succeed()
        else:
            req.event.fail(exc)

    # -- recv side -----------------------------------------------------------
    def _irecv(self, source: int, tag: int, context_id: int) -> Request:
        req = Request(self.env, "recv")
        if self.world.aborted:
            req.event.fail(WorldAbortedError(f"{self.name}: MPI world has aborted"))
            return req
        if not self.alive:
            req.event.fail(RankDeadError(f"{self.name} is dead"))
            return req
        if self.world.dead:
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
        """Matching engine found a (envelope, receive) pair: move the data.

        A rendezvous match is a process — its CTS and bulk legs are
        :meth:`SimCluster.wire_path` generators. An eager match is a
        callback chain: the receive delay, pushed here, then
        :meth:`_settle_recv`, the ``(envl, request)`` riding the timeout
        as its value.
        """
        if envl.protocol is Protocol.RENDEZVOUS:
            self.env.process(
                self._rendezvous_match(envl, posted), name=f"match:{self.name}"
            )
            return
        delay = self._recv_delay(envl.nbytes)
        if buffered:
            # The payload was parked in a bounce buffer: copy it out.
            delay += envl.nbytes * UNEXPECTED_COPY_S_PER_BYTE
        self.env.timeout(delay, (envl, posted.request)).callbacks.append(
            self._on_eager_delay
        )

    def _recv_delay(self, nbytes: int) -> float:
        memo = self.world._recv_cpu_memo
        delay = memo.get(nbytes)
        if delay is None:
            delay = memo[nbytes] = self.world.model.receiver_cpu_time(nbytes)
        return delay

    def _on_eager_delay(self, event: Event) -> None:
        envl, req = event._value
        self._settle_recv(envl, req)

    def _rendezvous_match(self, envl: Envelope, posted: PostedRecv) -> Generator:
        cluster = self.world.cluster
        model = self.world.model
        src_node = self.world.process(envl.src_gid).node
        done = envl.send_done
        try:
            # CTS back to the sender, then the bulk payload.
            yield from cluster.wire_path(self.node, src_node, RTS_BYTES, model)
            yield from cluster.wire_path(src_node, self.node, envl.nbytes, model)
        except LinkDown as exc:
            # A lost CTS/payload on the lossless fabric means the path
            # itself failed: both sides complete in error.
            if done is not None and not done.triggered:
                done.fail(RankDeadError(str(exc)))
            if not posted.request.event.triggered:
                posted.request.event.fail(RankDeadError(str(exc)))
            return
        if done is not None and not done.triggered:
            done.succeed()
        # A rendezvous RTS carries no data, so nothing was bounce-buffered.
        yield self.env.timeout(self._recv_delay(envl.nbytes))
        self._settle_recv(envl, posted.request)

    def _settle_recv(self, envl: Envelope, req: Request) -> None:
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


class _Pipe:
    """In-order delivery channel for one (src, dst) process pair."""

    def __init__(self, world: "MPIWorld", src: MPIProcess, dst: MPIProcess) -> None:
        self.world = world
        self.src = src
        self.dst = dst
        self.store: Store = Store(world.env)
        world.env.process(self._pump(), name=f"pipe:{src.gid}->{dst.gid}")

    def _pump(self) -> Generator:
        store = self.store
        queued = store.items
        while True:
            # A queued envelope is taken in place; otherwise park holding
            # nothing: a kept envelope would pin its payload (and a
            # rendezvous send's request) until the next message.
            if queued:
                envl = queued.pop(0)
            else:
                envl = None
                envl = yield store.get()
            try:
                yield from self.world.cluster.wire_path(
                    self.src.node, self.dst.node, envl.wire_bytes(), self.world.model
                )
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
        self._gids = itertools.count(0)
        self._procs: dict[int, MPIProcess] = {}
        self._pipes: dict[tuple[int, int], _Pipe] = {}
        cluster.link_state.on_node_failed(self._on_node_failed)
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
    def _on_node_failed(self, node: SimNode) -> None:
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
        proc.matching.wake_watchers()
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
            proc.matching.wake_watchers()
            self._drop_unexpected(proc, exc_factory)
        for pipe in self._pipes.values():
            # ``fail`` only schedules, so the queue can be swept, then cleared.
            for envl in pipe.store.items:
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(exc_factory())
            pipe.store.items.clear()

    def _shrink_after_death(self, dead: MPIProcess) -> None:
        """ULFM-style isolation: only ops naming the dead rank fail."""
        exc_factory = lambda: RankDeadError(f"{dead.name} died")  # noqa: E731
        for proc in self._procs.values():
            if proc is dead or not proc.alive:
                continue
            proc.matching.fail_posted(
                lambda p, proc=proc: proc._peer_gid(p.source, p.context_id) == dead.gid,
                exc_factory,
            )
        # Envelopes already queued toward or from the dead rank never land.
        for (src_gid, dst_gid), pipe in self._pipes.items():
            if dead.gid not in (src_gid, dst_gid):
                continue
            for envl in pipe.store.items:
                if envl.send_done is not None and not envl.send_done.triggered:
                    envl.send_done.fail(exc_factory())
            pipe.store.items.clear()

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
