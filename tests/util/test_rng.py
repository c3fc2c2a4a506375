"""Seeded streams: derived substreams, and the numpy paths against CPython.

``derive_seed`` substreams must be stable, separated and independent, so
one seed replays a whole simulation and a draw in one subsystem never
perturbs another.

``randint_stream`` reads MT19937 words through numpy's legacy
``RandomState`` (stream frozen by NEP 19) and applies CPython's
``_randbelow`` as a filter; the ``sortByKey`` reservoir inlines
``randint`` as a ``getrandbits`` rejection loop. Both must match
``random.Random(seed).randint`` draw for draw, on every interpreter the
project supports — a change in either library's stream fails here first.
"""

import random

import pytest

from repro.spark import partitioner
from repro.spark.partitioner import sample_for_range_bounds
from repro.util.rng import SeededRng, derive_seed, randint_stream


def stream(seed, key):
    return SeededRng(derive_seed(seed, "stream", key))


class TestSeededStreams:
    def test_derive_seed_is_stable(self):
        assert derive_seed(7, "stream", "a") == derive_seed(7, "stream", "a")

    def test_derive_seed_separates_substreams(self):
        assert derive_seed(7, "stream", "a") != derive_seed(7, "stream", "b")
        assert derive_seed(7, "stream", "a") != derive_seed(8, "stream", "a")

    def test_same_seed_same_sequence(self):
        a = [stream(42, "a").random() for _ in range(5)]
        b = [stream(42, "a").random() for _ in range(5)]
        assert a == b

    def test_substreams_are_independent(self):
        # Drawing from one stream must not perturb the other.
        a1 = stream(3, "a")
        b1 = stream(3, "b")
        _ = [b1.random() for _ in range(100)]
        a2 = stream(3, "a")
        assert [a1.random() for _ in range(5)] == [a2.random() for _ in range(5)]

HIGHS = sorted(
    {0, 1, 2**32 - 1, 2**32, 2**40}
    | {h for k in range(1, 32) for h in (2**k - 2, 2**k - 1, 2**k)}
)


@pytest.mark.parametrize("count", [0, 1, 10_000])
@pytest.mark.parametrize("high", HIGHS)
def test_randint_stream_is_cpython_randint(high, count):
    for seed in (0, 1234):
        rng = random.Random(seed)
        want = [rng.randint(0, high) for _ in range(count)]
        got = randint_stream(seed, high, count)
        assert got == want
        assert all(type(x) is int for x in got)


def _randint_reservoir(records, target, seed=17):
    rng = random.Random(seed)
    reservoir = []
    for i, key in enumerate(records):
        if len(reservoir) < target:
            reservoir.append(key)
        else:
            j = rng.randint(0, i)
            if j < target:
                reservoir[j] = key
    return reservoir


@pytest.mark.parametrize("target", [0, 1, 80])
def test_inlined_reservoir_is_the_randint_reservoir(target, monkeypatch):
    # One sample slot per partition, so num_partitions is the target.
    monkeypatch.setattr(partitioner, "SAMPLE_SIZE_PER_PARTITION", 1)
    keys = randint_stream(5, 10**6, 10_000)
    for seed in (17, 3):
        got = sample_for_range_bounds(iter(keys), target, seed=seed)
        assert got == _randint_reservoir(keys, target, seed=seed)
        assert len(got) == target
