"""Fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative schedule of :class:`FaultSpec`s.
Times are relative to an *anchor* chosen at arm time (typically the start
of the shuffle-read stage, so the same plan lands mid-shuffle on every
transport regardless of how fast each one reaches that point). Plans are
plain data: they can be built by hand for scripted scenarios or drawn from
a seeded RNG for stochastic soak runs — either way the same plan replays
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultSpec:
    """Base: one fault, fired ``at_s`` seconds after the plan's anchor."""

    at_s: float

    def describe(self) -> str:
        return f"{type(self).__name__}@+{self.at_s:g}s"


@dataclass(frozen=True)
class ExecutorCrash(FaultSpec):
    """Kill the node hosting one executor (JVM + host die together)."""

    exec_id: int = 0

    def describe(self) -> str:
        return f"crash executor {self.exec_id} at +{self.at_s:g}s"


@dataclass(frozen=True)
class NodeCrash(FaultSpec):
    """Kill an arbitrary cluster node by index."""

    node_index: int = 0

    def describe(self) -> str:
        return f"crash node {self.node_index} at +{self.at_s:g}s"


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


@dataclass(frozen=True)
class Partition(FaultSpec):
    """Cut connectivity between two groups of node indices."""

    group_a: tuple[int, ...] = ()
    group_b: tuple[int, ...] = ()
    duration_s: float | None = None

    def describe(self) -> str:
        dur = f" for {self.duration_s:g}s" if self.duration_s else ""
        return (
            f"partition {list(self.group_a)} | {list(self.group_b)}"
            f" at +{self.at_s:g}s{dur}"
        )


@dataclass(frozen=True)
class MessageChaos(FaultSpec):
    """Probabilistic per-message faults on the wire (gremlin mode).

    Each in-flight message independently rolls against ``drop_p``,
    ``corrupt_p`` and ``delay_p`` (in that order) from the plan's seeded
    chaos stream. Only messages of at least ``min_bytes`` are eligible, so
    tiny control traffic (ACKs, RTS/CTS) can be spared.
    """

    drop_p: float = 0.0
    corrupt_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 1e-3
    min_bytes: int = 0
    duration_s: float | None = None

    def describe(self) -> str:
        dur = f" for {self.duration_s:g}s" if self.duration_s else ""
        return (
            f"message chaos drop={self.drop_p:g} corrupt={self.corrupt_p:g} "
            f"delay={self.delay_p:g} at +{self.at_s:g}s{dur}"
        )


@dataclass(frozen=True)
class RankKill(FaultSpec):
    """Kill one MPI rank (the process, not its host) mid-run."""

    gid: int = 0

    def describe(self) -> str:
        return f"kill MPI rank gid={self.gid} at +{self.at_s:g}s"


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
