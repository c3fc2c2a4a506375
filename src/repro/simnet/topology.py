"""Cluster topology: nodes, NICs, and the timed wire path between them.

The cluster is deliberately flat (single full-bisection switch) — Frontera,
Stampede2 and the internal cluster are all fat-tree systems where the paper's
job sizes (≤ 32 nodes) see full bisection bandwidth; node NICs, not the
switch, are the contended resource.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.simnet.engine import SimEngine
from repro.simnet.events import Event, SimError
from repro.simnet.fluid import FluidNetwork
from repro.simnet.interconnect import Fabric, WireModel, loopback

# Messages at or below this size bypass NIC-lane serialization and pay only
# latency + their own (tiny) serialization time. Real fabrics interleave at
# packet granularity, so a 64-byte control message (MPI RTS/CTS, ACKs) never
# queues behind a multi-megabyte bulk transfer; our message-granularity NIC
# model would otherwise stall rendezvous handshakes by whole bulk slots.
CONTROL_BYPASS_BYTES = 256

# How long surviving peers take to notice a dead node (models TCP RST /
# connection-timeout propagation and the driver's heartbeat timeout, not
# instant oracle knowledge).
DETECT_DELAY_S = 0.05


class LinkDown(SimError):
    """No path between two nodes: an endpoint node has failed."""


class LinkState:
    """Cluster-wide link health: dead nodes and degraded NICs.

    The injector mutates this; the wire path consults it. A node failure
    is the one notice: protocol layers (sockets, MPI, the recovery
    scheduler) subscribe via :meth:`on_node_failed` and react after
    :data:`DETECT_DELAY_S` where detection is not instant. ``generation``
    bumps on every change so consumers can key caches off it.
    """

    def __init__(self, env: SimEngine) -> None:
        self.env = env
        self.failed: set[int] = set()
        self.degraded: dict[int, float] = {}  # node index -> slowdown factor
        self.generation = 0
        self._listeners: list[Callable[["SimNode"], None]] = []

    def on_node_failed(self, listener: Callable[["SimNode"], None]) -> None:
        self._listeners.append(listener)

    # -- mutations (the injector's surface) --------------------------------
    def fail_node(self, node: "SimNode") -> None:
        if node.index in self.failed:
            return
        self.failed.add(node.index)
        self.generation += 1
        for listener in list(self._listeners):
            listener(node)

    def degrade(self, node: "SimNode", factor: float) -> None:
        """Slow the node's NIC by ``factor`` (2.0 = half bandwidth)."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        self.degraded[node.index] = factor
        self.generation += 1

    def restore(self, node: "SimNode") -> None:
        if self.degraded.pop(node.index, None) is not None:
            self.generation += 1

    # -- queries (the wire path's surface) ---------------------------------
    def path_up(self, src: "SimNode", dst: "SimNode") -> bool:
        return src.index not in self.failed and dst.index not in self.failed

    def slowdown(self, src: "SimNode", dst: "SimNode") -> float:
        return max(
            self.degraded.get(src.index, 1.0), self.degraded.get(dst.index, 1.0)
        )


class SimNode:
    """A compute node: a core count plus a full-duplex NIC.

    The NIC's two directions are fluid links of the wire path (the
    ``(index, "tx" | "rx", ...)`` keys in :meth:`SimCluster.wire_path`);
    the node itself only keeps their traffic counters, the registry's
    ``simnet.link.<name>.*``, which the wire path adds to per message.
    """

    def __init__(self, env: SimEngine, index: int, name: str, cores: int) -> None:
        self.env = env
        self.index = index
        self.name = name
        self.cores = cores
        m = env.metrics
        self.tx_bytes = m.counter(f"simnet.link.{name}.tx_bytes")
        self.rx_bytes = m.counter(f"simnet.link.{name}.rx_bytes")
        self.tx_messages = m.counter(f"simnet.link.{name}.tx_messages")
        self.rx_messages = m.counter(f"simnet.link.{name}.rx_messages")


class SimCluster:
    """A set of :class:`SimNode` connected by one fabric.

    The cluster provides the *timed wire path* primitive
    (:meth:`wire_path`): it charges NIC serialization at both endpoints and
    wire latency, and completes when the last byte lands at the receiver.
    Endpoint CPU overheads (``o_s``/``o_r``) are charged by the protocol
    layers (sockets / MPI), because *where* they are charged — an event-loop
    thread vs. an application thread — is exactly what differs between the
    paper's designs.
    """

    def __init__(
        self,
        env: SimEngine,
        fabric: Fabric,
        n_nodes: int,
        cores_per_node: int,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        if cores_per_node < 1:
            raise ValueError(f"need at least one core per node, got {cores_per_node}")
        self.env = env
        self.fabric = fabric
        self.nodes = [
            SimNode(env, i, f"node{i}", cores=cores_per_node)
            for i in range(n_nodes)
        ]
        self._by_name = {node.name: node for node in self.nodes}
        self._loopback = loopback(fabric)
        self.fluid = FluidNetwork(env)
        self.link_state = LinkState(env)
        self.link_state.on_node_failed(self._on_node_failed)
        # Per-model memo of the pure delay terms (WireModel is frozen, so
        # every entry is a function of (model, nbytes) only) and of the
        # model's delivered-byte counter. Keyed by id(model) with the model
        # pinned in the entry so a recycled id can never alias another
        # model's table. Entry layout:
        # [model, {nbytes: serialization+latency}, bulk cap (B/s) or None,
        #  {nbytes: post-transfer protocol+chunk delay},
        #  the simnet.wire.<model>.bytes counter or None].
        # The counter is registered at the model's first delivery, not at
        # its first send, so a model that never delivers adds no metric.
        self._wire_delay_memo: dict[int, list] = {}

    def _wire_bytes_counter(self, entry: list):
        """The memo entry's ``simnet.wire.<model>.bytes`` counter, made at
        the first delivery (models sharing a name share the counter)."""
        entry[4] = self.env.metrics.counter(f"simnet.wire.{entry[0].name}.bytes")
        return entry[4]

    def _on_node_failed(self, node: SimNode) -> None:
        # In-flight bulk transfers touching the dead node fail promptly; the
        # generator parked on the flow's done event sees LinkDown.
        self.fluid.abort_flows(
            lambda key: isinstance(key, tuple) and key and key[0] == node.index,
            lambda: LinkDown(f"{node.name} failed mid-transfer"),
        )

    def fail_node(self, ref: int | str | SimNode) -> None:
        """Convenience: kill a node (delegates to :class:`LinkState`)."""
        self.link_state.fail_node(self.node(ref))

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, ref: int | str | SimNode) -> SimNode:
        if isinstance(ref, SimNode):
            return ref
        if isinstance(ref, int):
            return self.nodes[ref]
        return self._by_name[ref]

    # -- the timed wire path --------------------------------------------------
    def wire_path(
        self,
        src: SimNode,
        dst: SimNode,
        nbytes: int,
        model: WireModel,
    ) -> Generator[Event, Any, float]:
        """Generator charging the wire time for one message.

        Same-node messages use the shared-memory loopback model and bypass
        the NIC. Cross-node control-sized messages pay serialization and
        latency alone. Bulk messages are one fluid flow over the sender's
        TX link and the receiver's RX link, fair-shared with every other
        flow on either (this is what produces incast sharing at a hot
        receiver), then pay protocol latency and per-chunk cost.

        Returns the elapsed simulated time.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        env = self.env
        start = env.now
        # LinkState.generation stays 0 until a node fails or a NIC
        # degrades, so a healthy cluster skips the link-health queries.
        # It is read afresh at each check: a fault can land during a flow.
        ls = self.link_state
        if ls.generation and not ls.path_up(src, dst):
            raise LinkDown(f"no path {src.name}->{dst.name}")
        memo = self._wire_delay_memo
        if src is dst:
            lo = self._loopback
            entry = memo.get(id(lo))
            if entry is None:
                entry = memo[id(lo)] = [lo, {}, None, {}, None]
            delay = entry[1].get(nbytes)
            if delay is None:
                delay = entry[1][nbytes] = (
                    lo.protocol_latency(nbytes) + lo.serialization_time(nbytes)
                )
            yield env.timeout(delay)
            counter = entry[4]
            if counter is None:
                counter = self._wire_bytes_counter(entry)
            counter.value += nbytes
            return env.now - start

        # NIC degradation stretches both serialization and flow rate; flows
        # started before a degradation keep their old rate (the fluid link
        # key embeds the link-state generation) — a coarse but cheap
        # approximation of mid-flow rate renegotiation.
        factor = ls.slowdown(src, dst) if ls.generation else 1.0
        entry = memo.get(id(model))
        if entry is None:
            entry = memo[id(model)] = [model, {}, None, {}, None]
        if nbytes <= CONTROL_BYPASS_BYTES:
            # Control-sized messages interleave at packet granularity and
            # never queue behind bulk flows.
            delay = entry[1].get(nbytes)
            if delay is None:
                delay = entry[1][nbytes] = (
                    model.serialization_time(nbytes)
                    + model.protocol_latency(nbytes)
                )
            yield env.timeout(delay * factor)
        else:
            # Bulk payloads: flow-level fair sharing of the protocol stack's
            # effective bandwidth at both endpoints (see simnet.fluid). The
            # per-chunk stack cost is CPU/protocol work, charged on top.
            cap = entry[2]
            if cap is None:
                cap = entry[2] = min(
                    model.effective_bandwidth_Bps(), model.fabric.line_rate_Bps
                )
            cap = cap / factor
            gen = ls.generation
            done = self.fluid.transfer(
                [
                    ((src.index, "tx", model.name, gen), cap),
                    ((dst.index, "rx", model.name, gen), cap),
                ],
                nbytes,
            )
            yield done
            post = entry[3].get(nbytes)
            if post is None:
                post = entry[3][nbytes] = (
                    model.protocol_latency(nbytes)
                    + model.n_chunks(nbytes) * model.per_chunk_s
                )
            yield env.timeout(post * factor)
        if ls.generation and not ls.path_up(src, dst):
            # The receiver died while the message was in flight.
            raise LinkDown(f"{dst.name} failed before delivery from {src.name}")

        src.tx_bytes.value += nbytes
        src.tx_messages.value += 1.0
        dst.rx_bytes.value += nbytes
        dst.rx_messages.value += 1.0
        counter = entry[4]
        if counter is None:
            counter = self._wire_bytes_counter(entry)
        counter.value += nbytes
        return env.now - start
