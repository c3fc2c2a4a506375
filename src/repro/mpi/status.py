"""MPI_Status equivalent."""

from __future__ import annotations

from dataclasses import dataclass, field

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Status:
    """Receive/probe result metadata (mutable, filled in by the runtime)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0
    cancelled: bool = False
    error: int = 0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def fill_from(self, other: "Status") -> None:
        self.source = other.source
        self.tag = other.tag
        self.nbytes = other.nbytes
        self.cancelled = other.cancelled
        self.error = other.error
