"""Simulated stream sockets (the TCP/IPoIB path).

Netty's NIO transport rides on these: connection establishment is a
SYN/SYN-ACK round trip, each direction of an established socket is an
in-order byte stream, and every segment pays the TCP wire model's costs.

Ordering guarantee: each socket direction drains its outbound queue through
a single *pump* process, so messages on one connection can never overtake
each other — exactly TCP's contract, and required by Netty's frame decoder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator

from repro.simnet.engine import SimEngine
from repro.simnet.events import Event, SimError
from repro.simnet.interconnect import WireModel
from repro.simnet.resources import Store
from repro.simnet.topology import DETECT_DELAY_S, LinkDown, SimCluster, SimNode


class SocketError(SimError):
    """Connection-level failure (refused, closed, reset, double bind)."""


@dataclass(frozen=True)
class SocketAddress:
    """(host, port) endpoint address."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(slots=True)
class Segment:
    """One application message carried on the stream.

    ``payload`` is the sample-scale object; ``nbytes`` is the nominal wire
    size actually charged. ``eof`` marks an orderly close. Not frozen: a
    frozen ``__init__`` pays an ``object.__setattr__`` per field, on every
    message, and nothing mutates a segment once it is queued.
    """

    payload: Any
    nbytes: int
    eof: bool = False


class SimSocket:
    """One endpoint of an established connection.

    ``inbound`` is the stream's receive queue, the :class:`Store` of
    delivered segments a NIO selector key watches and its event loop
    drains in place (readable = ``inbound.items`` is non-empty).
    """

    __slots__ = (
        "stack", "env", "node", "peer_node", "local", "remote", "model",
        "socket_id", "peer", "_outbound", "inbound", "closed", "bytes_sent",
        "bytes_received", "_pump",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        stack: "SocketStack",
        node: SimNode,
        peer_node: SimNode,
        local: SocketAddress,
        remote: SocketAddress,
        model: WireModel,
    ) -> None:
        self.stack = stack
        self.env = stack.env
        self.node = node
        self.peer_node = peer_node
        self.local = local
        self.remote = remote
        self.model = model
        self.socket_id = next(SimSocket._ids)
        self.peer: SimSocket | None = None  # wired by the stack
        self._outbound: Store = Store(stack.env)
        self.inbound: Store = Store(stack.env)
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        stack._register(self)
        self._pump = stack.env.process(self._pump_loop(), name=f"sock{self.socket_id}-pump")

    # -- API -------------------------------------------------------------
    def send(self, payload: Any, nbytes: int) -> None:
        """Queue a message on the stream (the send buffer is unbounded).

        Sends on a closed socket raise :class:`SocketError` — Spark treats
        that as a fetch failure.
        """
        if self.closed:
            raise SocketError(f"send on closed socket {self.local}->{self.remote}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._outbound.put_nowait(Segment(payload, nbytes))

    def close(self) -> None:
        """Orderly close: flush queued segments then signal EOF to the peer."""
        if self.closed:
            return
        self.closed = True
        self._outbound.put_nowait(Segment(None, 0, eof=True))

    def abort(self) -> None:
        """Abrupt teardown (peer died / connection reset): no flush.

        EOF surfaces on the *local* inbound stream so the owning event loop
        fires ``channel_inactive``; nothing is sent to the peer.
        """
        if self.closed:
            return
        self.closed = True
        self.inbound.put_nowait(Segment(None, 0, eof=True))

    # -- internals ---------------------------------------------------------
    def _pump_loop(self) -> Generator[Event, Any, None]:
        env = self.env
        model = self.model
        wire_path = self.stack.cluster.wire_path
        outbound = self._outbound
        queued = outbound.items
        while True:
            # A queued segment is taken in place; otherwise park holding
            # nothing: a kept segment would pin its payload until the next
            # send, forever on a handshake-only socket.
            if queued:
                seg = queued.pop(0)
            else:
                seg = None
                seg = yield outbound.get()
            if seg.eof:
                peer = self.peer
                if peer is not None:
                    try:
                        yield from wire_path(self.node, self.peer_node, 0, model)
                    except LinkDown:
                        return  # peer gone; FIN is moot
                    peer.inbound.put_nowait(seg)
                return
            # Sender-side stack cost, wire, receiver-side stack cost: the
            # expressions of WireModel.sender_cpu_time/receiver_cpu_time,
            # inline because they run twice per message.
            nbytes = seg.nbytes
            yield env.timeout(model.send_overhead_s + nbytes * model.per_byte_cpu_s)
            try:
                yield from wire_path(self.node, self.peer_node, nbytes, model)
            except LinkDown:
                # Connection reset: surface EOF locally; a surviving
                # peer learns via the stack's failure-detection sweep.
                self.abort()
                return
            yield env.timeout(model.recv_overhead_s + nbytes * model.per_byte_cpu_s)
            self.bytes_sent += nbytes
            peer = self.peer
            if peer is None:
                raise SocketError("socket pump running before peer wired")
            peer.bytes_received += nbytes
            peer.inbound.put_nowait(seg)


class ListeningSocket:
    """A bound server socket; ``accept()`` yields established connections."""

    def __init__(self, stack: "SocketStack", node: SimNode, addr: SocketAddress) -> None:
        self.stack = stack
        self.node = node
        self.addr = addr
        # Established server-side sockets awaiting accept; a NIO selector
        # key watches it (acceptable = ``backlog.items`` is non-empty).
        self.backlog: Store = Store(stack.env)
        self.closed = False

    def accept(self) -> Event:
        """Event yielding the next accepted :class:`SimSocket`."""
        if self.closed:
            raise SocketError(f"accept on closed listener {self.addr}")
        return self.backlog.get()


class SocketStack:
    """Cluster-wide socket registry: bind / listen / connect."""

    def __init__(self, env: SimEngine, cluster: SimCluster, model: WireModel) -> None:
        self.env = env
        self.cluster = cluster
        self.model = model
        self._listeners: dict[SocketAddress, ListeningSocket] = {}
        self._ephemeral = itertools.count(49152)
        self._sockets: list[SimSocket] = []
        cluster.link_state.on_node_failed(self._on_node_failed)

    def _register(self, sock: SimSocket) -> None:
        self._sockets.append(sock)

    def _on_node_failed(self, node: SimNode) -> None:
        self.env.process(
            self._failure_sweep(node), name=f"sock-sweep:{node.name}"
        )

    def _failure_sweep(self, node: SimNode) -> Generator[Event, Any, None]:
        """After the detection delay, reset connections touching a dead node.

        Models the RST / connection-timeout path: surviving endpoints see
        EOF on their stream (→ Netty fires ``channel_inactive``); new
        connects to the dead node are refused because its listeners close.
        """
        yield self.env.timeout(DETECT_DELAY_S)
        for addr, listener in list(self._listeners.items()):
            if listener.node is node:
                listener.closed = True
                self._unbind(addr)
        for sock in list(self._sockets):
            if sock.closed:
                self._sockets.remove(sock)
                continue
            if sock.node is node:
                sock.closed = True  # dead host: silent, nothing to surface
            elif sock.peer_node is node:
                sock.abort()

    def listen(self, node: SimNode | str | int, port: int) -> ListeningSocket:
        node = self.cluster.node(node)
        addr = SocketAddress(node.name, port)
        if addr in self._listeners:
            raise SocketError(f"address already in use: {addr}")
        listener = ListeningSocket(self, node, addr)
        self._listeners[addr] = listener
        return listener

    def _unbind(self, addr: SocketAddress) -> None:
        self._listeners.pop(addr, None)

    def connect(
        self, node: SimNode | str | int, remote: SocketAddress
    ) -> Generator[Event, Any, SimSocket]:
        """Generator establishing a connection (one SYN/SYN-ACK round trip).

        Returns the client-side :class:`SimSocket`; the server side appears
        in the listener's accept queue.
        """
        node = self.cluster.node(node)
        listener = self._listeners.get(remote)
        if listener is None or listener.closed:
            raise SocketError(f"connection refused: {remote}")
        server_node = listener.node
        local = SocketAddress(node.name, next(self._ephemeral))

        # SYN / SYN-ACK round trip on the wire.
        try:
            yield from self.cluster.wire_path(node, server_node, 0, self.model)
            yield from self.cluster.wire_path(server_node, node, 0, self.model)
        except LinkDown as exc:
            raise SocketError(f"connect to {remote} failed: {exc}") from exc
        if listener.closed:
            raise SocketError(f"connection refused: {remote}")

        client = SimSocket(self, node, server_node, local, remote, self.model)
        server = SimSocket(self, server_node, node, remote, local, self.model)
        client.peer = server
        server.peer = client
        listener.backlog.put_nowait(server)
        return client
