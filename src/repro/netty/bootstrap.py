"""Client/server bootstraps: how channels come into existence."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.netty.channel import Channel
from repro.netty.eventloop import EventLoop

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.sockets import ListeningSocket, SocketAddress, SocketStack
    from repro.simnet.topology import SimNode


class ServerBootstrap:
    """Binds a listening socket and hands accepted channels to an event loop.

    Mirrors Netty's builder idiom::

        server = (ServerBootstrap(stack)
                  .group(loop)
                  .child_handler(init_fn)
                  .bind(node, port))
    """

    def __init__(self, stack: "SocketStack") -> None:
        self.stack = stack
        self._loop: EventLoop | None = None
        self._child_group = None
        self._child_initializer: Callable[[Channel], None] | None = None

    def group(self, loop: EventLoop, child_group=None) -> "ServerBootstrap":
        """``loop`` accepts connections; ``child_group`` (optional
        EventLoopGroup) hosts the accepted channels, Netty boss/worker style."""
        self._loop = loop
        self._child_group = child_group
        return self

    def child_handler(self, initializer: Callable[[Channel], None]) -> "ServerBootstrap":
        self._child_initializer = initializer
        return self

    def bind(self, node: "SimNode | str | int", port: int) -> "NettyServer":
        if self._loop is None:
            raise RuntimeError("ServerBootstrap needs an event loop (call group())")
        listener = self.stack.listen(node, port)
        self._loop.register_acceptor(
            listener,
            self._child_initializer or (lambda ch: None),
            self._child_group,
        )
        return NettyServer(listener, self._loop)


class NettyServer:
    """A bound server: the listener plus its event loop."""

    def __init__(self, listener: "ListeningSocket", loop: EventLoop) -> None:
        self.listener = listener
        self.loop = loop


class Bootstrap:
    """Client-side connector."""

    def __init__(self, stack: "SocketStack") -> None:
        self.stack = stack
        self._loop: EventLoop | None = None
        self._initializer: Callable[[Channel], None] | None = None

    def group(self, loop: EventLoop) -> "Bootstrap":
        self._loop = loop
        return self

    def handler(self, initializer: Callable[[Channel], None]) -> "Bootstrap":
        self._initializer = initializer
        return self

    def connect(
        self, node: "SimNode | str | int", remote: "SocketAddress"
    ) -> Generator:
        """Establish a connection (generator); returns the client Channel."""
        if self._loop is None:
            raise RuntimeError("Bootstrap needs an event loop (call group())")
        socket = yield from self.stack.connect(node, remote)
        channel = Channel(self._loop, socket)
        if self._initializer is not None:
            self._initializer(channel)
        self._loop.register(channel)
        return channel
