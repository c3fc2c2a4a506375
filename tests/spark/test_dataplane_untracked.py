"""The local data plane leaves the cyclic collector nothing to re-walk.

Cached partitions and map-output buckets are tuples of atomic records
(DESIGN §10, §12), so once the collector has looked at them they are
untracked and full collections skip them. Lists would stay tracked for
their whole life, and every full pass would walk each record again.

The same runs must still produce the sample traces the list-based data
plane produced: the digests below were recorded from it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools

import numpy as np
import pytest

from repro.spark import dag, rdd
from repro.spark.tracing import StageTrace
from repro.workloads.ohb import GROUP_BY, SORT_BY

# sha256 of trace_digest() for run_sample(num_pairs=20_000, num_partitions=4)
# from id counters at zero, recorded with list-based stores.
TRACE_DIGESTS = {
    GROUP_BY.name: "7cc500983ab15e6b61119be49b12dd25db697b83f59e3471ed5a20b2fa4c00c5",
    SORT_BY.name: "5cf7cd437392990e242af03867d27c6f90b83bc602f966d3634623b53aa8346f",
}


def trace_digest(sc) -> str:
    """Every field of every recorded stage, arrays by dtype, shape and bytes."""
    h = hashlib.sha256()
    for stage in sc.tracer.all_stages():
        for f in dataclasses.fields(StageTrace):
            value = getattr(stage, f.name)
            if isinstance(value, np.ndarray):
                value = (value.dtype.str, value.shape, value.tobytes())
            h.update(repr((f.name, value)).encode())
    return h.hexdigest()


@pytest.fixture
def fresh_ids(monkeypatch):
    monkeypatch.setattr(dag.Stage, "_ids", itertools.count(0))
    monkeypatch.setattr(rdd.RDD, "_ids", itertools.count(0))
    monkeypatch.setattr(rdd.ShuffleDependency, "_shuffle_ids", itertools.count(0))


@pytest.mark.parametrize("workload", [GROUP_BY, SORT_BY], ids=lambda w: w.name)
def test_stores_are_untracked_and_traces_unchanged(workload, fresh_ids):
    sc = workload.run_sample(num_pairs=20_000, num_partitions=4)
    # Two passes, not one: a full collection appends the middle
    # generation after the youngest, so a store young enough can be
    # looked at before the older records inside it are untracked.
    gc.collect()
    gc.collect()
    backend = sc.backend
    cached = list(backend.cache.values())
    buckets = [
        records
        for maps in backend.map_outputs._outputs.values()
        for by_reduce in maps
        for records, _nbytes in by_reduce.values()
    ]
    assert len(cached) == 4 and len(buckets) == 16
    assert not any(map(gc.is_tracked, cached))
    assert not any(map(gc.is_tracked, buckets))
    assert sum(map(len, buckets)) == sum(map(len, cached)) == 20_000
    assert trace_digest(sc) == TRACE_DIGESTS[workload.name]
