"""Simulation-clock-native metrics: counters only.

Every metric is owned by one :class:`MetricsRegistry`, which is owned by
one :class:`~repro.simnet.engine.SimEngine` — timestamps use the
*simulated* clock (``env.now``), never wall time, so two same-seed runs
produce identical metric values.

Names are hierarchical dot paths (``netty.loop.exec0-io1.busy_s``,
``mpi.rank.executor#5.iprobe_calls``). The registry is get-or-create:
asking twice for the same name returns the same object, which is how
per-executor instrumentation aggregates into cluster-wide counters
(``spark.scheduler.fetch_wait_s``) without a central wiring step.

A count lives in one place: its owner asks for the :class:`Counter` once
and adds to it in place (``counter.value += n``), and :meth:`snapshot`
only reads the values. That add is one slotted attribute store, about as
cheap as a plain int add on the owner, so the always-on instrumentation
in the event loop / wire path keeps no private mirror and needs no
publish step.

Counters are the only kind. Every report, golden and benchmark row reads
a count (poll tax, busy seconds, ``MPI_Iprobe`` calls, fetch wait). A
distribution is read off the records that hold each sample: a read
task's ``fetch_wait_s`` is on its flight event, a job's JCT and queueing
delay are on its ``JobRecord``. Summarizing them again here would cost
every message a call that no reader uses. The heavier artifacts
(snapshots, report columns, flight recordings) are opt-in per run via
the ``obs_enabled`` / ``obs_causal`` cluster keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


class Counter:
    """Monotonically increasing value (events, bytes, CPU seconds).

    Owners add to ``value`` directly; it stays a float.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time export of a registry.

    ``counters`` maps names to values. ``total``/``names`` accept
    ``fnmatch`` globs over the hierarchical names, which is how reports
    roll per-loop metrics up to per-run ones
    (``snap.total("netty.loop.*.poll_tax_s")``).
    """

    taken_at: float
    started_at: float
    counters: dict[str, float]

    @property
    def elapsed_s(self) -> float:
        return self.taken_at - self.started_at

    def __len__(self) -> int:
        return len(self.counters)

    def names(self, pattern: str = "*") -> list[str]:
        """All metric names matching the glob, sorted."""
        return sorted(n for n in self.counters if fnmatchcase(n, pattern))

    def value(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def total(self, pattern: str) -> float:
        """Sum of all counter values whose name matches the glob."""
        return sum(
            v for name, v in self.counters.items() if fnmatchcase(name, pattern)
        )

    def delta(self, baseline: "MetricsSnapshot", pattern: str = "*") -> dict[str, float]:
        """Counter-wise ``self - baseline`` for names matching the glob.

        Works across registries (e.g. a clean run vs a faulted run of two
        fresh same-seed clusters); names absent from the baseline count
        from zero, and zero deltas are dropped.
        """
        out: dict[str, float] = {}
        for name, v in self.counters.items():
            if not fnmatchcase(name, pattern):
                continue
            d = v - baseline.counters.get(name, 0.0)
            if d != 0.0:
                out[name] = d
        return out


class MetricsRegistry:
    """Get-or-create metric store bound to one simulation engine."""

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.started_at = env.now
        self._metrics: dict[str, Counter] = {}
        self._sync_hooks: list[Callable[[], None]] = []

    def on_snapshot(self, hook: "Callable[[], None]") -> None:
        """Register ``hook()`` to run just before every :meth:`snapshot`.

        For stats kept outside this registry: the process-global cache
        tallies that ``SparkSimCluster`` copies into ``cache.*``. Counts
        need no hook; their owners add to the counter itself.
        """
        self._sync_hooks.append(hook)

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at zero on first request."""
        counter = self._metrics.get(name)
        if counter is None:
            counter = self._metrics[name] = Counter(name)
        return counter

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze current values (zeros included)."""
        for hook in self._sync_hooks:
            hook()
        return MetricsSnapshot(
            taken_at=self.env.now,
            started_at=self.started_at,
            counters={name: c.value for name, c in self._metrics.items()},
        )
