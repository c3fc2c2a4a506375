"""Nonblocking-operation requests (MPI_Request)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.mpi.status import Status
from repro.simnet.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


class Request:
    """Handle for a pending isend/irecv.

    ``wait()`` is a generator (simulation processes ``yield from`` it);
    ``test()`` is an immediate poll. Completed receives carry the payload as
    the request's value and fill :attr:`status`.
    """

    def __init__(self, env: "SimEngine", kind: str) -> None:
        self.env = env
        self.kind = kind  # "send" | "recv"
        self.event: Event = Event(env)
        self.status = Status()

    @property
    def completed(self) -> bool:
        return self.event.triggered

    def test(self, status: Status | None = None) -> tuple[bool, Any]:
        """Poll for completion: ``(flag, value)`` without blocking."""
        if not self.event.triggered:
            return False, None
        if not self.event.ok:
            raise self.event.value
        if status is not None:
            status.fill_from(self.status)
        return True, self.event.value

    def wait(self, status: Status | None = None) -> Generator["Event", Any, Any]:
        """Generator completing with the operation's value."""
        value = yield self.event
        if status is not None:
            status.fill_from(self.status)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"<Request {self.kind} {state}>"


def wait_all(
    env: "SimEngine", requests: list[Request]
) -> Generator["Event", Any, list[Any]]:
    """Generator completing when every request completes (MPI_Waitall)."""
    results = []
    for req in requests:
        value = yield from req.wait()
        results.append(value)
    return results

