"""Simulation-clock-native metrics: counters, time-weighted gauges, histograms.

Every metric is owned by one :class:`MetricsRegistry`, which is owned by
one :class:`~repro.simnet.engine.SimEngine` — timestamps and time
integrals use the *simulated* clock (``env.now``), never wall time, so
two same-seed runs produce identical metric values.

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
publish step. The heavier artifacts (snapshots, report columns, flight
recordings) are opt-in per run via the ``obs_enabled`` / ``obs_causal``
cluster keywords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable

from repro.util.stats import OnlineStats, Summary

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value:g})"


class TimeWeightedGauge:
    """A gauge that integrates its value over simulated time.

    ``time_average()`` is the mean value weighted by how long each value
    was held — the right statistic for "average unexpected-queue depth"
    or "average in-flight flows", where sampling at events would
    over-weight busy periods.
    """

    __slots__ = ("name", "value", "_env", "_start", "_last", "_integral")

    def __init__(self, name: str, env: "SimEngine") -> None:
        self.name = name
        self.value = 0.0
        self._env = env
        self._start = env.now
        self._last = env.now
        self._integral = 0.0

    def set(self, value: float) -> None:
        now = self._env.now
        self._integral += self.value * (now - self._last)
        self._last = now
        self.value = value

    def time_average(self) -> float:
        now = self._env.now
        span = now - self._start
        if span <= 0:
            return self.value
        return (self._integral + self.value * (now - self._last)) / span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeWeightedGauge({self.name}={self.value:g})"


class Histogram:
    """Sample distribution as exact running moments.

    n/mean/stdev/min/max/total come from :class:`OnlineStats`; no sample
    is kept.
    """

    __slots__ = ("name", "stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = OnlineStats()

    def observe(self, x: float) -> None:
        self.stats.add(x)

    def observe_many(self, x: float, n: int) -> None:
        """Absorb ``n`` identical observations in O(1).

        Bulk-publish path for hot-path code that counts occurrences in
        plain ints and flushes at snapshot time: the moments are merged
        analytically (n identical values have zero variance).
        """
        if n <= 0:
            return
        bulk = OnlineStats()
        bulk.n = n
        bulk._mean = x
        bulk.min = x
        bulk.max = x
        bulk.total = x * n
        self.stats.merge(bulk)

    @property
    def n(self) -> int:
        return self.stats.n

    def summary(self) -> Summary | None:
        """The exact moments (None when empty)."""
        if self.stats.n == 0:
            return None
        return Summary(
            n=self.stats.n,
            mean=self.stats.mean,
            stdev=self.stats.stdev,
            min=self.stats.min,
            max=self.stats.max,
            total=self.stats.total,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.stats.n})"


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time export of a registry.

    ``counters`` maps names to values; ``time_gauges`` to
    ``(last value, time average)``; ``histograms`` to
    :class:`~repro.util.stats.Summary`. ``total``/``names`` accept
    ``fnmatch`` globs over the hierarchical names, which is how reports
    roll per-loop metrics up to per-run ones
    (``snap.total("netty.loop.*.poll_tax_s")``).
    """

    taken_at: float
    started_at: float
    counters: dict[str, float] = field(default_factory=dict)
    time_gauges: dict[str, tuple[float, float]] = field(default_factory=dict)
    histograms: dict[str, Summary] = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.taken_at - self.started_at

    def __len__(self) -> int:
        return len(self.counters) + len(self.time_gauges) + len(self.histograms)

    def names(self, pattern: str = "*") -> list[str]:
        """All metric names matching the glob, sorted."""
        out = [
            name
            for group in (self.counters, self.time_gauges, self.histograms)
            for name in group
            if fnmatchcase(name, pattern)
        ]
        return sorted(out)

    def value(self, name: str, default: float = 0.0) -> float:
        if name in self.counters:
            return self.counters[name]
        if name in self.time_gauges:
            return self.time_gauges[name][0]
        return default

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
        self._metrics: dict[str, object] = {}
        self._sync_hooks: list[Callable[[], None]] = []

    def on_snapshot(self, hook: "Callable[[], None]") -> None:
        """Register ``hook()`` to run just before every :meth:`snapshot`.

        For values that are not counts added in place: a histogram fed in
        bulk from hot-path buckets (the MPI match-scan lengths), or stats
        kept outside this registry (the process-global caches). Counts
        need no hook; their owners add to the counter itself.
        """
        self._sync_hooks.append(hook)

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def time_gauge(self, name: str) -> TimeWeightedGauge:
        return self._get(name, TimeWeightedGauge, self.env)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, pattern: str = "*") -> list[str]:
        return sorted(n for n in self._metrics if fnmatchcase(n, pattern))

    def snapshot(self) -> MetricsSnapshot:
        """Freeze current values (drops empty histograms, keeps zeros)."""
        for hook in self._sync_hooks:
            hook()
        counters: dict[str, float] = {}
        time_gauges: dict[str, tuple[float, float]] = {}
        histograms: dict[str, Summary] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, TimeWeightedGauge):
                time_gauges[name] = (metric.value, metric.time_average())
            elif isinstance(metric, Histogram):
                summary = metric.summary()
                if summary is not None:
                    histograms[name] = summary
        return MetricsSnapshot(
            taken_at=self.env.now,
            started_at=self.started_at,
            counters=counters,
            time_gauges=time_gauges,
            histograms=histograms,
        )
