"""Fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative schedule of :class:`FaultSpec`s.
Times are relative to an *anchor* chosen at arm time (typically the start
of the shuffle-read stage, so the same plan lands mid-shuffle on every
transport regardless of how fast each one reaches that point). Plans are
plain data built by hand, and the plan's seed fixes the clusters it runs
on, so the same plan replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultSpec:
    """Base: one fault, fired ``at_s`` seconds after the plan's anchor.

    Each kind's ``describe()`` is its line in the report's timeline.
    """

    at_s: float


@dataclass(frozen=True)
class ExecutorCrash(FaultSpec):
    """Kill the node hosting one executor (JVM + host die together)."""

    exec_id: int = 0

    def describe(self) -> str:
        return f"crash executor {self.exec_id} at +{self.at_s:g}s"


@dataclass(frozen=True)
class NicDegradation(FaultSpec):
    """Slow one node's NIC by ``factor`` (2.0 = half bandwidth)."""

    node_index: int = 0
    factor: float = 4.0
    duration_s: float | None = None  # None = until the end of the run

    def describe(self) -> str:
        dur = f" for {self.duration_s:g}s" if self.duration_s else ""
        return (
            f"degrade NIC of node {self.node_index} x{self.factor:g}"
            f" at +{self.at_s:g}s{dur}"
        )


@dataclass
class FaultPlan:
    """An ordered fault schedule plus the seed that reproduces it."""

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0
    name: str = "plan"

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def sorted_specs(self) -> list[FaultSpec]:
        return sorted(self.specs, key=lambda s: s.at_s)
