"""Arrival-trace generator: determinism and substream independence."""

import pytest

from repro.jobserver import poisson_trace
from repro.util.units import MiB


class TestPoissonTrace:
    def test_same_seed_reproduces_trace(self):
        a = poisson_trace(seed=11, n_jobs=10)
        b = poisson_trace(seed=11, n_jobs=10)
        assert a.jobs == b.jobs

    def test_different_seeds_differ(self):
        a = poisson_trace(seed=11, n_jobs=10)
        b = poisson_trace(seed=12, n_jobs=10)
        assert a.jobs != b.jobs

    def test_job_i_independent_of_trace_length(self):
        """Job i's draws come from (seed, "job", i) — a 2-job trace is a
        byte-identical prefix of the 50-job trace."""
        short = poisson_trace(seed=7, n_jobs=2)
        long = poisson_trace(seed=7, n_jobs=50)
        assert short.jobs == long.jobs[:2]
        assert long.jobs[:2] == short.jobs

    def test_arrivals_monotone_and_sizes_bounded(self):
        trace = poisson_trace(
            seed=3, n_jobs=30, min_bytes=64 * MiB, max_bytes=256 * MiB,
            parallelism_choices=(2, 4),
        )
        times = [j.submit_s for j in trace.jobs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)
        for j in trace.jobs:
            assert 64 * MiB <= j.nominal_bytes <= 256 * MiB
            assert j.parallelism in (2, 4)

    def test_mix_respected(self):
        trace = poisson_trace(seed=5, n_jobs=40, mix=(("GroupByTest", 1.0),))
        assert {j.workload for j in trace.jobs} == {"GroupByTest"}

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(seed=1, n_jobs=-1)
        with pytest.raises(ValueError):
            poisson_trace(seed=1, n_jobs=2, min_bytes=10, max_bytes=5)

    def test_empty_trace(self):
        trace = poisson_trace(seed=1, n_jobs=0)
        assert len(trace) == 0
        assert trace.makespan_floor_s == 0.0
