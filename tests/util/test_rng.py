"""Same draws from the same stream: the numpy paths against CPython's own.

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
from repro.util.rng import randint_stream

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
