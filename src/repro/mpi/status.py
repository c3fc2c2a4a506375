"""MPI_Status equivalent."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Status:
    """A completed operation's metadata, filled in by the runtime: the
    sender's rank and tag (−1 until a receive completes) and the size."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0
