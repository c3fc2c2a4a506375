"""Wire frames: what actually crosses the transport between channels.

Spark's ``MessageWithHeader`` (paper Fig. 6) is a header + body pair where
the header encodes the frame length, message type and body size. We keep
the header as *real encoded bytes* (so codecs round-trip bit-exactly) and
the body as a payload reference with an explicit size — the analogue of
Netty's zero-copy ``FileRegion`` that Spark uses for shuffle blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class WireFrame:
    """One framed message: encoded header bytes plus an optional body."""

    header: bytes
    body: Any = None
    body_nbytes: int = 0
    # Causal trace context (repro.obs.causal), carried as an in-memory side
    # channel only — never serialized into the header bytes, so frames are
    # byte-identical with tracing on or off.
    trace_ctx: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # A None body with body_nbytes > 0 is valid: the simulation often
        # moves size-only payloads (the bytes are charged, not materialized).
        if self.body_nbytes < 0:
            raise ValueError(f"body_nbytes must be >= 0, got {self.body_nbytes}")

    @property
    def nbytes(self) -> int:
        """Total frame size on the wire."""
        return len(self.header) + self.body_nbytes


# Frame layout constants (mirroring Spark's MessageEncoder):
#   8 bytes  frame length (header + body)
#   1 byte   message type tag
#   ...      message-specific header fields
#   N bytes  body (not materialized in the header bytes)
FRAME_LENGTH_SIZE = 8
TYPE_TAG_SIZE = 1
