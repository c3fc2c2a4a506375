"""Small statistics helpers: running moments and a sorted-sample percentile.

:class:`OnlineStats` keeps exact moments without storing samples; it backs
the metrics registry's histograms, whose :class:`Summary` is moments only.
:func:`percentile` serves callers that hold their whole sample (the job
server's JCT tables, the benchmark's per-workload medians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class OnlineStats:
    """Welford-style running mean/variance with min/max tracking.

    Backs the metrics registry's histograms: large event populations are
    summarized without being stored.
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two accumulators (Chan's parallel-merge formula)."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        self._mean = (self._mean * self.n + other._mean * other.n) / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(n={self.n}, mean={self.mean:.4g}, stdev={self.stdev:.4g})"


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not xs:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(xs)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    # lo + (hi - lo) * frac is exact when the two samples are equal,
    # unlike the convex-combination form (one-ulp drift).
    return data[lo] + (data[hi] - data[lo]) * frac


@dataclass(frozen=True)
class Summary:
    """Exact moments of a sample."""

    n: int
    mean: float
    stdev: float
    min: float
    max: float
    total: float
