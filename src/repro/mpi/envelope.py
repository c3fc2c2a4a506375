"""Message envelopes and wire protocol selection (eager vs rendezvous)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.events import Event

# Size of a rendezvous Ready-To-Send control message on the wire.
RTS_BYTES = 64


class Protocol(Enum):
    """How the payload moves."""

    EAGER = "eager"  # payload piggybacks on the envelope
    RENDEZVOUS = "rndv"  # envelope is an RTS; payload moves after match


@dataclass(slots=True)
class Envelope:
    """One in-flight point-to-point message.

    ``context_id`` scopes matching to a communicator (and, for collectives,
    to the communicator's collective context), exactly as MPI requires.
    ``src_rank`` is the rank *within that communicator's matching group*.
    """

    src_gid: int  # globally unique process id (routing)
    src_rank: int  # rank as visible to the receiver's matching
    dst_gid: int
    context_id: int
    tag: int
    payload: Any
    nbytes: int
    protocol: Protocol
    send_done: "Event | None" = None  # rendezvous: triggered when transfer completes
    # Causal trace context (repro.obs.causal): in-memory only, not part of
    # the wire size or matching identity.
    trace_ctx: Any = field(default=None, compare=False, repr=False)

    def wire_bytes(self) -> int:
        """Bytes the envelope itself occupies on the wire."""
        return self.nbytes if self.protocol is Protocol.EAGER else RTS_BYTES
