"""MPI datatype descriptors.

The simulated runtime moves Python objects, so datatypes exist for size
accounting and API fidelity (``comm.send(buf, dtype=MPI.BYTE)`` reads like
the paper's Java bindings, which expose the same basic types).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Datatype:
    """A basic MPI datatype: a name and an extent in bytes."""

    name: str
    extent: int

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise ValueError(f"datatype extent must be positive, got {self.extent}")


BYTE = Datatype("MPI_BYTE", 1)
CHAR = Datatype("MPI_CHAR", 1)
INT32 = Datatype("MPI_INT32_T", 4)
INT = Datatype("MPI_INT", 4)
LONG = Datatype("MPI_LONG", 8)
INT64 = Datatype("MPI_INT64_T", 8)
FLOAT = Datatype("MPI_FLOAT", 4)
DOUBLE = Datatype("MPI_DOUBLE", 8)

BASIC_TYPES = {
    t.name: t for t in (BYTE, CHAR, INT32, INT, LONG, INT64, FLOAT, DOUBLE)
}
