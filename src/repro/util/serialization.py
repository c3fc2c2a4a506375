"""Serialized-size accounting.

The simulator moves *sample-scale* Python objects while charging wire time
for *nominal-scale* byte counts. That requires a consistent answer to "how
many bytes would this object be on the wire?". We approximate Java/Kryo
serialization with pickle sizes plus a cache for common shapes, and provide
:class:`SizedPayload` for callers that want to pin an explicit nominal size
to a payload (the trace-scaling path).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

# Fixed-size primitives get a flat cost so sizing is O(1) on the hot path
# (per-record sizing during shuffle writes) instead of a pickle round-trip.
_PRIMITIVE_SIZES = {
    bool: 1,
    int: 8,
    float: 8,
    type(None): 1,
}

# estimate_size memo: shape key -> serialized size. Only shapes whose size
# is provably content-independent are cached (see _shape_key), so a cache
# hit always returns exactly what sizeof() would have computed.
_SIZE_CACHE: dict[Any, int] = {}
_cache_hits = 0
_cache_misses = 0


def _shape_key(obj: Any) -> Any:
    """Hashable shape key, or None when the size depends on content.

    Shapes covered: fixed-size primitives, length-keyed bytes/bytearray,
    ASCII strings (utf-8 length == character length), and tuples/lists
    composed of the above. Anything else — dicts, non-ASCII strings,
    arbitrary objects — returns None and is sized directly.
    """
    t = type(obj)
    if t in _PRIMITIVE_SIZES:
        return t
    if t is bytes or t is bytearray:
        return (t, len(obj))
    if t is str:
        return (t, len(obj)) if obj.isascii() else None
    if t is tuple or t is list:
        parts = []
        for x in obj:
            k = _shape_key(x)
            if k is None:
                return None
            parts.append(k)
        return (t, tuple(parts))
    if t is np.ndarray:
        # nbytes is a pure function of (dtype, shape) — content-free.
        return (t, obj.dtype.str, obj.shape)
    if isinstance(obj, np.generic):
        # numpy scalars (np.float64 labels etc.): fixed itemsize per type.
        return t
    return None


def estimate_size(obj: Any) -> int:
    """:func:`sizeof` with memoization over repeated shapes.

    Shuffle writes size every record of a bucket, and real workloads emit
    millions of records of a handful of shapes (``(int, bytes(1000))`` in
    the OHB kernels). The cache maps shape keys to sizes; shapes whose
    size is content-dependent fall through to :func:`sizeof` uncached.
    """
    global _cache_hits, _cache_misses
    key = _shape_key(obj)
    if key is None:
        return sizeof(obj)
    size = _SIZE_CACHE.get(key)
    if size is None:
        _cache_misses += 1
        size = _SIZE_CACHE[key] = sizeof(obj)
    else:
        _cache_hits += 1
    return size


def estimate_batch(records: Iterable[Any]) -> int:
    """Exact ``sum(estimate_size(r) for r in records)``, chunked.

    The shuffle write path sizes whole buckets at once; for the dominant
    shape — a bucket of uniform-arity tuples, e.g. ``(int, bytes)`` pairs
    — the sum is computed column-wise (``map(itemgetter(i), records)``)
    with C-level ``map``/``sum`` calls instead of one Python-level sizing
    call per record. Columns that are not uniformly primitive fall back to
    per-element :func:`estimate_size` (which still memoizes repeated
    shapes), so the result is the exact per-record sum by construction for
    every input.
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    n = len(records)
    if n == 0:
        return 0
    if n > 1 and set(map(type, records)) == {tuple} and len(set(map(len, records))) == 1:
        total = 8 * n  # per-tuple container overhead (see sizeof)
        for i in range(len(records[0])):
            col = list(map(itemgetter(i), records))
            col_types = set(map(type, col))
            if len(col_types) == 1:
                (ct,) = col_types
                flat = _PRIMITIVE_SIZES.get(ct)
                if flat is not None:
                    total += flat * n
                    continue
                if ct is bytes or ct is bytearray:
                    total += sum(map(len, col))
                    continue
            total += sum(map(estimate_size, col))
        return total
    return sum(map(estimate_size, records))


def size_cache_stats() -> tuple[int, int]:
    """Process-lifetime ``(hits, misses)`` of the estimate_size cache.

    Callers that attribute cache traffic to one run (the obs snapshot
    hook in ``spark.deploy``) record a baseline at start and publish the
    difference.
    """
    return _cache_hits, _cache_misses


def sizeof(obj: Any) -> int:
    """Estimated serialized size of ``obj`` in bytes.

    Estimates, not exact pickle lengths, for primitives and small containers
    — the point is a *stable, monotone* size model, matching how Spark's
    ``SizeEstimator`` is itself approximate.
    """
    t = type(obj)
    flat = _PRIMITIVE_SIZES.get(t)
    if flat is not None:
        return flat
    if t is bytes or t is bytearray:
        return len(obj)
    if t is str:
        return len(obj.encode("utf-8", errors="replace"))
    if t is tuple or t is list:
        return 8 + sum(sizeof(x) for x in obj)
    if t is dict:
        return 16 + sum(sizeof(k) + sizeof(v) for k, v in obj.items())
    if isinstance(obj, SizedPayload):
        return obj.nbytes
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        # numpy arrays and anything else exposing a buffer size
        return int(nbytes)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # opaque, unpicklable object: charge a token cost


@dataclass(frozen=True)
class SizedPayload:
    """A payload with an explicit wire size, decoupled from its sample data.

    The trace-replay path wraps a (small) sample object together with the
    nominal byte count the same message would carry at paper scale; every
    layer that charges wire time consults ``nbytes`` via :func:`sizeof`.
    """

    data: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
