"""Cluster topology: nodes, NICs, and the timed wire path between them.

The cluster is deliberately flat (single full-bisection switch) — Frontera,
Stampede2 and the internal cluster are all fat-tree systems where the paper's
job sizes (≤ 32 nodes) see full bisection bandwidth; node NICs, not the
switch, are the contended resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

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


class LinkDown(SimError):
    """No path between two nodes: an endpoint died or a partition cut it."""


class MessageDropped(SimError):
    """One in-flight message was lost (or corrupted) by fault injection.

    Reliable protocols (TCP) retransmit on this; lossless-fabric protocols
    (MPI over IB) treat it as a fatal link event — that asymmetry is the
    blast-radius story the fault experiments measure.
    """

    def __init__(self, message: str, corrupted: bool = False) -> None:
        super().__init__(message)
        self.corrupted = corrupted


class LinkState:
    """Cluster-wide link health: dead nodes, degraded NICs, partitions.

    The injector mutates this; the wire path consults it; protocol layers
    (sockets, MPI) subscribe via :meth:`on_change` to learn about failures
    after their own detection delay. ``generation`` bumps on every change so
    consumers can key caches off it.
    """

    def __init__(self, env: SimEngine, detect_delay_s: float = 0.05) -> None:
        self.env = env
        self.failed: set[int] = set()
        self.degraded: dict[int, float] = {}  # node index -> slowdown factor
        self._partitions: list[tuple[frozenset[int], frozenset[int]]] = []
        self.generation = 0
        # How long surviving peers take to notice a dead endpoint (models
        # TCP RST / connection-timeout propagation, not instant oracle
        # knowledge).
        self.detect_delay_s = detect_delay_s
        self._listeners: list[Callable[[str, Any], None]] = []

    def on_change(self, listener: Callable[[str, Any], None]) -> None:
        self._listeners.append(listener)

    def _notify(self, kind: str, payload: Any) -> None:
        self.generation += 1
        for listener in list(self._listeners):
            listener(kind, payload)

    # -- mutations (the injector's surface) --------------------------------
    def fail_node(self, node: "SimNode") -> None:
        if node.index in self.failed:
            return
        self.failed.add(node.index)
        self._notify("node-failed", node)

    def degrade(self, node: "SimNode", factor: float) -> None:
        """Slow the node's NIC by ``factor`` (2.0 = half bandwidth)."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        self.degraded[node.index] = factor
        self._notify("nic-degraded", node)

    def restore(self, node: "SimNode") -> None:
        if self.degraded.pop(node.index, None) is not None:
            self._notify("nic-restored", node)

    def partition(self, group_a: Iterable[int], group_b: Iterable[int]) -> None:
        self._partitions.append((frozenset(group_a), frozenset(group_b)))
        self._notify("partitioned", self._partitions[-1])

    def heal_partitions(self) -> None:
        if self._partitions:
            self._partitions.clear()
            self._notify("healed", None)

    # -- queries (the wire path's surface) ---------------------------------
    def is_failed(self, node: "SimNode") -> bool:
        return node.index in self.failed

    def path_up(self, src: "SimNode", dst: "SimNode") -> bool:
        if src.index in self.failed or dst.index in self.failed:
            return False
        for side_a, side_b in self._partitions:
            if (src.index in side_a and dst.index in side_b) or (
                src.index in side_b and dst.index in side_a
            ):
                return False
        return True

    def slowdown(self, src: "SimNode", dst: "SimNode") -> float:
        return max(
            self.degraded.get(src.index, 1.0), self.degraded.get(dst.index, 1.0)
        )


@dataclass
class NicStats:
    """Per-node NIC accounting (useful for incast analysis in tests)."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_messages: int = 0
    rx_messages: int = 0


class SimNode:
    """A compute node: a core count plus a full-duplex NIC.

    The NIC's two directions are fluid links of the wire path (the
    ``(index, "tx" | "rx", ...)`` keys in :meth:`SimCluster.wire_path`);
    the node itself only keeps their traffic counters.
    """

    def __init__(self, env: SimEngine, index: int, name: str, cores: int) -> None:
        self.env = env
        self.index = index
        self.name = name
        self.cores = cores
        self.nic_stats = NicStats()
        # Registry mirror of nic_stats: per-link (node direction) traffic.
        # Published lazily at snapshot time so the wire path only pays the
        # plain-int NicStats adds per message.
        m = env.metrics
        self._c_tx_bytes = m.counter(f"simnet.link.{name}.tx_bytes")
        self._c_rx_bytes = m.counter(f"simnet.link.{name}.rx_bytes")
        self._c_tx_messages = m.counter(f"simnet.link.{name}.tx_messages")
        self._c_rx_messages = m.counter(f"simnet.link.{name}.rx_messages")
        m.on_snapshot(self._publish_metrics)

    def _publish_metrics(self) -> None:
        ns = self.nic_stats
        self._c_tx_bytes.value = float(ns.tx_bytes)
        self._c_rx_bytes.value = float(ns.rx_bytes)
        self._c_tx_messages.value = float(ns.tx_messages)
        self._c_rx_messages.value = float(ns.rx_messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.name} cores={self.cores}>"


class NetTrace:
    """Delivered bytes, grouped by wire-model name.

    Per-message elapsed time is the ``simnet.wire.<model>.elapsed_s``
    histogram's to keep, not this aggregate's.
    """

    def __init__(self) -> None:
        self.bytes_by_model: dict[str, int] = {}

    def record(self, model: WireModel, nbytes: int) -> None:
        self.bytes_by_model[model.name] = (
            self.bytes_by_model.get(model.name, 0) + nbytes
        )

    def total_bytes(self) -> int:
        return sum(self.bytes_by_model.values())


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
        self.trace = NetTrace()
        self._loopback = loopback(fabric)
        self.fluid = FluidNetwork(env)
        self.link_state = LinkState(env)
        self.link_state.on_change(self._on_link_event)
        # Optional per-message chaos hook: (src, dst, nbytes, model) ->
        # None | ("drop"|"corrupt", 0.0) | ("delay", seconds). Installed by
        # repro.faults.injector for message-level fault plans.
        self.fault_filter: (
            Callable[[SimNode, SimNode, int, WireModel], tuple[str, float] | None]
            | None
        ) = None
        self.fault_stats = {"dropped": 0, "corrupted": 0, "delayed": 0}
        # Per-wire-model elapsed-time histograms, cached so the per-message
        # hot path avoids registry name lookups. Byte totals are published
        # from the NetTrace aggregates at snapshot time instead of being
        # counted per message.
        self._wire_histograms: dict[str, Any] = {}
        # Per-model memo of the pure delay terms (WireModel is frozen, so
        # every entry is a function of (model, nbytes) only). Keyed by
        # id(model) with the model pinned in the entry so a recycled id
        # can never alias another model's table. Entry layout:
        # [model, {nbytes: serialization+latency}, bulk cap (B/s) or None,
        #  {nbytes: post-transfer protocol+chunk delay}].
        self._wire_delay_memo: dict[int, list] = {}
        env.metrics.on_snapshot(self._publish_metrics)

    def _publish_metrics(self) -> None:
        m = self.env.metrics
        for name, nbytes in self.trace.bytes_by_model.items():
            m.counter(f"simnet.wire.{name}.bytes").value = float(nbytes)

    def _on_link_event(self, kind: str, payload: Any) -> None:
        if kind != "node-failed":
            return
        node: SimNode = payload
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
        # LinkState.generation stays 0 until something fails, degrades or
        # partitions, so a healthy cluster skips the link-health queries.
        # It is read afresh at each check: a fault can land during a
        # fault-filter delay or a flow.
        ls = self.link_state
        if ls.generation and not ls.path_up(src, dst):
            raise LinkDown(f"no path {src.name}->{dst.name}")
        memo = self._wire_delay_memo
        if src is dst:
            lo = self._loopback
            entry = memo.get(id(lo))
            if entry is None:
                entry = memo[id(lo)] = [lo, {}, None, {}]
            delay = entry[1].get(nbytes)
            if delay is None:
                delay = entry[1][nbytes] = (
                    lo.protocol_latency(nbytes) + lo.serialization_time(nbytes)
                )
            yield env.timeout(delay)
            elapsed = env.now - start
            self.trace.record(lo, nbytes)
            return elapsed

        if self.fault_filter is not None:
            verdict = self.fault_filter(src, dst, nbytes, model)
            if verdict is not None:
                action, amount = verdict
                if action == "drop":
                    self.fault_stats["dropped"] += 1
                    raise MessageDropped(f"dropped {src.name}->{dst.name}")
                if action == "corrupt":
                    self.fault_stats["corrupted"] += 1
                    raise MessageDropped(
                        f"corrupted {src.name}->{dst.name}", corrupted=True
                    )
                if action == "delay":
                    self.fault_stats["delayed"] += 1
                    yield env.timeout(amount)

        # NIC degradation stretches both serialization and flow rate; flows
        # started before a degradation keep their old rate (the fluid link
        # key embeds the link-state generation) — a coarse but cheap
        # approximation of mid-flow rate renegotiation.
        factor = ls.slowdown(src, dst) if ls.generation else 1.0
        entry = memo.get(id(model))
        if entry is None:
            entry = memo[id(model)] = [model, {}, None, {}]
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

        src.nic_stats.tx_bytes += nbytes
        src.nic_stats.tx_messages += 1
        dst.nic_stats.rx_bytes += nbytes
        dst.nic_stats.rx_messages += 1
        elapsed = env.now - start
        hist = self._wire_histograms.get(model.name)
        if hist is None:
            hist = env.metrics.histogram(f"simnet.wire.{model.name}.elapsed_s")
            self._wire_histograms[model.name] = hist
        hist.observe(elapsed)
        self.trace.record(model, nbytes)
        return elapsed
