"""Partitioners: how keys map to reduce partitions.

:class:`HashPartitioner` is Spark's default for groupByKey/reduceByKey;
:class:`RangePartitioner` backs sortByKey and is built by *sampling the
input* — which is why SortByTest's sort job is "Job2" in the paper's stage
breakdown: the sampling pass is its own job.
"""

from __future__ import annotations

import bisect
import random
from itertools import islice
from typing import Any, Callable, Iterable, Sequence

import numpy as np

# Python's hash() is the identity on ints in [0, 2**61 - 1) (it reduces
# modulo the Mersenne prime 2**61 - 1), which is what lets the batched
# hash path below replace per-key hash() calls with one vectorized mod.
_HASH_IDENTITY_MAX = (1 << 61) - 1


def _per_key(part: Callable[[Any], int], keys: Sequence[Any]) -> np.ndarray:
    return np.fromiter(map(part, keys), dtype=np.intp, count=len(keys))


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"need >= 1 partition, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_many(self, keys: Sequence[Any]) -> np.ndarray:
        """Batched :meth:`partition`; subclasses add vectorized paths.

        Returns an ``intp`` array whose ``tolist()`` is exactly
        ``[self.partition(k) for k in keys]`` — the shuffle data plane
        relies on that identity for byte-identical traffic matrices, and
        buckets by the array without a round trip through a list.
        """
        return _per_key(self.partition, keys)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.num_partitions == other.num_partitions

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: ``hash(key) mod numPartitions`` (non-negative)."""

    def partition(self, key: Any) -> int:
        return hash(key) % self.num_partitions

    def partition_many(self, keys: Sequence[Any]) -> np.ndarray:
        # Vectorized path for all-int key batches (the common shuffle
        # case) where hash(k) == k; anything else — bools, negatives,
        # huge ints, mixed or non-int keys — falls back per key.
        if keys and set(map(type, keys)) == {int}:
            try:
                arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
            except OverflowError:
                arr = None
            if arr is not None and int(arr.min()) >= 0 and int(arr.max()) < _HASH_IDENTITY_MAX:
                return (arr % self.num_partitions).astype(np.intp, copy=False)
        return _per_key(self.partition, keys)


class RangePartitioner(Partitioner):
    """Sorted-range partitioning from sampled split points.

    ``bounds`` has ``num_partitions - 1`` ascending split keys; keys ≤
    ``bounds[i]`` land in partition ``i``.
    """

    def __init__(self, bounds: Sequence[Any], ascending: bool = True) -> None:
        super().__init__(len(bounds) + 1)
        self.bounds = list(bounds)
        self.ascending = ascending
        for a, b in zip(self.bounds, self.bounds[1:]):
            if a > b:
                raise ValueError("range bounds must be ascending")

    def partition(self, key: Any) -> int:
        idx = bisect.bisect_left(self.bounds, key)
        if not self.ascending:
            idx = self.num_partitions - 1 - idx
        return idx

    def partition_many(self, keys: Sequence[Any]) -> np.ndarray:
        # Vectorized searchsorted for all-int keys against all-int
        # bounds: np.searchsorted(side="left") on exact int64 values is
        # bisect_left. Floats are excluded (NaN ordering differs) and
        # anything unrepresentable in int64 falls back per key.
        if (
            keys
            and self.bounds
            and set(map(type, keys)) == {int}
            and set(map(type, self.bounds)) == {int}
        ):
            try:
                karr = np.fromiter(keys, dtype=np.int64, count=len(keys))
                barr = np.fromiter(
                    self.bounds, dtype=np.int64, count=len(self.bounds)
                )
            except OverflowError:
                karr = None
            if karr is not None:
                idx = np.searchsorted(barr, karr, side="left")
                if not self.ascending:
                    idx = self.num_partitions - 1 - idx
                return idx
        return _per_key(self.partition, keys)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and other.bounds == self.bounds
            and other.ascending == self.ascending
        )

    def __hash__(self) -> int:
        return hash(("RangePartitioner", tuple(self.bounds), self.ascending))

    @staticmethod
    def bounds_from_sample(
        sample: Iterable[Any], num_partitions: int, seed: int = 17
    ) -> list[Any]:
        """Choose ``num_partitions - 1`` split points from a key sample.

        Mirrors Spark's reservoir-sample + weighted-split approach closely
        enough: sort the sample and take evenly spaced quantiles.
        """
        keys = sorted(sample)
        if num_partitions <= 1 or not keys:
            return []
        bounds: list[Any] = []
        step = len(keys) / num_partitions
        last = None
        for i in range(1, num_partitions):
            candidate = keys[min(int(i * step), len(keys) - 1)]
            if last is None or candidate > last:
                bounds.append(candidate)
                last = candidate
        return bounds


# Spark samples ~20 items per output partition when building range bounds.
SAMPLE_SIZE_PER_PARTITION = 20


def sample_for_range_bounds(records: Iterable[Any], num_partitions: int, seed: int = 17):
    """Reservoir-sample keys for RangePartitioner construction.

    Record ``i`` past the first ``target`` replaces slot
    ``random.Random(seed).randint(0, i)`` if that is below ``target``; the
    loop inlines ``randint``'s own draw (CPython's ``_randbelow``: the top
    ``(i + 1).bit_length()`` bits, redrawn until below ``i + 1``), so the
    stream and the sample are the same without three frames per record.
    """
    target = SAMPLE_SIZE_PER_PARTITION * num_partitions
    getrandbits = random.Random(seed).getrandbits
    it = iter(records)
    reservoir: list[Any] = list(islice(it, target))
    for n, key in enumerate(it, target + 1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        if j < target:
            reservoir[j] = key
    return reservoir
