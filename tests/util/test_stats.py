"""Unit + property tests for repro.util.stats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import percentile


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        xs = [5.0, 1.0, 9.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_single_element_any_q(self):
        for q in (0, 37.5, 50, 99, 100):
            assert percentile([42.0], q) == 42.0

    def test_all_equal_values(self):
        assert percentile([7.0] * 5, 99) == 7.0

    def test_p99_interpolates_near_top(self):
        xs = list(range(1, 101))  # 1..100
        assert percentile(xs, 99) == pytest.approx(99.01)
        assert percentile(xs, 95) < percentile(xs, 99) < percentile(xs, 100)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100), st.floats(0, 100))
    def test_within_bounds(self, xs, q):
        p = percentile(xs, q)
        assert min(xs) <= p <= max(xs)

    @given(st.lists(st.floats(0, 1e9), min_size=2, max_size=60))
    def test_monotone_in_q(self, xs):
        qs = [0, 25, 50, 75, 100]
        vals = [percentile(xs, q) for q in qs]
        assert vals == sorted(vals)

