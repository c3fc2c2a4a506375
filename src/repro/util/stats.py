"""Small statistics helper: a sorted-sample percentile.

:func:`percentile` serves callers that hold their whole sample (the job
server's JCT tables, the benchmark's per-workload medians).
"""

from __future__ import annotations

import math
from typing import Sequence


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
