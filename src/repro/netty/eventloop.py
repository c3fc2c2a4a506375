"""The Netty event loop: one simulated I/O thread driving many channels.

Implements the Fig-5 cycle: ``select`` → handle channel state changes →
run queued tasks → repeat. Inbound handlers run *on the loop thread*; a
handler that must block (the Optimized design's ``MPI_Recv`` inside a
ChannelHandler) registers a *blocking continuation* which the loop runs to
completion before selecting again — exactly the semantics of blocking the
Netty I/O thread, which is what the paper's design does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.netty.bytebuf import PooledByteBufAllocator
from repro.netty.channel import Channel
from repro.netty.selector import Selector
from repro.simnet.resources import Store
from repro.util.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine
    from repro.simnet.events import Process
    from repro.simnet.sockets import ListeningSocket

# Per-iteration / per-event CPU costs of the loop machinery.
WAKEUP_COST_S = 0.3 * US  # returning from select + key iteration
READ_EVENT_COST_S = 0.4 * US  # pipeline traversal bookkeeping per message
TASK_COST_S = 0.2 * US  # dequeue + dispatch of one submitted task


class EventLoopGroup:
    """A pool of event loops; channels are assigned round-robin.

    Mirrors Netty's ``NioEventLoopGroup`` — Spark's transport pools run
    ``spark.shuffle.io.{server,client}Threads`` loops so one blocked
    channel handler never stalls every connection.
    """

    def __init__(self, loops: list["EventLoop"]) -> None:
        if not loops:
            raise ValueError("EventLoopGroup needs at least one loop")
        self.loops = list(loops)
        self._next = 0

    def next(self) -> "EventLoop":
        loop = self.loops[self._next % len(self.loops)]
        self._next += 1
        return loop

    def start(self) -> None:
        for loop in self.loops:
            if loop._proc is None:
                loop.start()

    def stop(self) -> None:
        for loop in self.loops:
            loop.stop()


class EventLoop:
    """A single-threaded I/O loop owning a selector, channels and tasks."""

    def __init__(self, env: "SimEngine", name: str | None = None) -> None:
        if name is None:
            name = f"event-loop-{next(env.loop_ids)}"
        self.env = env
        self.name = name
        self.selector = Selector(env)
        self.tasks: Store = Store(env)
        self.running = False
        self._proc: "Process | None" = None
        self._blocking: list[Generator] = []
        # One allocator serves every channel on the loop, as Netty's
        # channels share PooledByteBufAllocator.DEFAULT.
        self.alloc = PooledByteBufAllocator()
        # Set by the MPI transports: this loop's JVM-level MPI identity.
        self.mpi_endpoint = None
        # Loop metrics (``netty.loop.<name>.*``, repro.obs): the loop body
        # adds to the registry counters it holds. Same-named loops share
        # these counters, so their counts add up; keep loop names unique
        # per cluster (the executors' "exec{N}-io{M}" scheme does, and an
        # unnamed loop is numbered per engine).
        m = env.metrics
        self._c_iterations = m.counter(f"netty.loop.{name}.iterations")
        self._c_messages_read = m.counter(f"netty.loop.{name}.messages_read")
        self._c_select_wakeups = m.counter(f"netty.loop.{name}.select_wakeups")
        self._c_busy = m.counter(f"netty.loop.{name}.busy_s")
        self._c_blocked = m.counter(f"netty.loop.{name}.blocked_s")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Process":
        if self._proc is not None:
            raise RuntimeError(f"{self.name} already started")
        self.running = True
        self._proc = self.env.process(self._run(), name=self.name)
        return self._proc

    def stop(self) -> None:
        self.running = False
        self.selector.wakeup()

    # -- registration --------------------------------------------------------
    def register(self, channel: Channel) -> None:
        self.selector.register_channel(channel)
        channel.pipeline.fire_channel_active()

    def deregister(self, channel: Channel) -> None:
        self.selector.deregister(channel)

    def register_acceptor(
        self,
        listener: "ListeningSocket",
        child_initializer: Callable[[Channel], None],
        child_group: "EventLoopGroup | None" = None,
    ) -> None:
        self.selector.register_acceptor(listener, child_initializer, child_group)

    # -- task & blocking-continuation submission ---------------------------------
    def submit(self, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` on the loop thread at the next iteration."""
        self.tasks.put_nowait(fn)
        self.selector.wakeup()

    def run_blocking(self, gen: Generator) -> None:
        """Ask the loop to run ``gen`` to completion on its own thread.

        Called by inbound handlers; the loop thread is occupied until the
        generator finishes (this is how a blocking ``MPI_Recv`` inside a
        ChannelHandler behaves in the paper's Optimized design).
        """
        self._blocking.append(gen)

    # -- the loop (paper Fig. 5) ----------------------------------------------
    def _run(self) -> Generator:
        env = self.env
        while self.running:
            keys = yield from self.selector.select()
            if not self.running:
                return
            self._c_select_wakeups.value += 1.0
            t_busy = env.now
            self._c_iterations.value += 1.0
            yield env.timeout(WAKEUP_COST_S)

            for key in keys:
                if key.is_acceptable():
                    yield from self._accept_all(key)
                elif key.is_readable():
                    yield from self._read_all(key.channel)

            # Handlers may have parked blocking continuations.
            if self._blocking:
                yield from self._drain_blocking()

            # Run queued tasks.
            while self.tasks.items:
                fn = self.tasks.get_nowait()
                yield env.timeout(TASK_COST_S)
                fn()
                if self._blocking:
                    yield from self._drain_blocking()
            self._c_busy.value += env.now - t_busy

    def _accept_all(self, key) -> Generator:
        listener = key.listener
        while listener.acceptable:
            ev = listener.accept()
            assert ev.triggered
            socket = ev.value
            target = key.child_group.next() if key.child_group is not None else self
            child = Channel(target, socket)
            if key.child_initializer is not None:
                key.child_initializer(child)
            target.selector.register_channel(child)
            child.pipeline.fire_channel_active()
            yield self.env.timeout(TASK_COST_S)

    def _read_all(self, channel: Channel) -> Generator:
        env = self.env
        while True:
            seg = channel.socket.recv_nowait()
            if seg is None:
                return
            if seg.eof:
                channel.active = False
                self.deregister(channel)
                channel.pipeline.fire_channel_inactive()
                return
            self._c_messages_read.value += 1.0
            yield env.timeout(READ_EVENT_COST_S)
            try:
                channel.pipeline.fire_channel_read(seg.payload)
            except Exception as exc:  # handler errors go back down the pipeline
                channel.pipeline.fire_exception_caught(exc)
            if self._blocking:
                yield from self._drain_blocking()

    def _drain_blocking(self) -> Generator:
        """Run the parked continuations; callers skip it when none are."""
        t0 = self.env.now
        while self._blocking:
            gen = self._blocking.pop(0)
            yield from gen
        # Time the loop thread spent inside blocking continuations (the
        # Optimized design's MPI_Recv-in-handler stalls land here).
        self._c_blocked.value += self.env.now - t0
