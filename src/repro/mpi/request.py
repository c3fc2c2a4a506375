"""Nonblocking-operation requests (MPI_Request)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.mpi.status import Status
from repro.simnet.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


class Request:
    """Handle for a pending isend/irecv.

    ``wait()`` is a generator (simulation processes ``yield from`` it).
    Completed receives carry the payload as the request's value and fill
    :attr:`status`.
    """

    def __init__(self, env: "SimEngine", kind: str) -> None:
        self.env = env
        self.kind = kind  # "send" | "recv"
        self.event: Event = Event(env)
        self.status = Status()

    def wait(self, status: Status | None = None) -> Generator["Event", Any, Any]:
        """Generator completing with the operation's value."""
        value = yield self.event
        if status is not None:
            status.fill_from(self.status)
        return value
