"""Unit + property tests for repro.util.stats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import OnlineStats, percentile


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_known_values(self):
        s = OnlineStats()
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.n == 8
        assert s.mean == pytest.approx(5.0)
        assert s.stdev == pytest.approx(2.138, abs=1e-3)
        assert s.min == 2.0 and s.max == 9.0
        assert s.total == 40.0

    def test_merge_matches_combined(self):
        a, b, combined = OnlineStats(), OnlineStats(), OnlineStats()
        xs, ys = [1.0, 2.0, 3.0], [10.0, 20.0]
        a.extend(xs)
        b.extend(ys)
        combined.extend(xs + ys)
        a.merge(b)
        assert a.n == combined.n
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.min == combined.min and a.max == combined.max

    def test_merge_into_empty(self):
        a, b = OnlineStats(), OnlineStats()
        b.extend([5.0, 7.0])
        a.merge(b)
        assert a.n == 2 and a.mean == 6.0

    def test_merge_empty_into_nonempty_is_noop(self):
        a, b = OnlineStats(), OnlineStats()
        a.extend([5.0, 7.0])
        a.merge(b)
        assert a.n == 2
        assert a.mean == 6.0
        assert a.min == 5.0 and a.max == 7.0

    def test_merge_both_empty(self):
        a, b = OnlineStats(), OnlineStats()
        a.merge(b)
        assert a.n == 0
        assert a.mean == 0.0
        assert a.variance == 0.0

    def test_merge_takes_min_and_max_across_both(self):
        a, b = OnlineStats(), OnlineStats()
        a.extend([3.0, 4.0])
        b.extend([-1.0, 10.0])
        a.merge(b)
        assert a.min == -1.0 and a.max == 10.0
        b2 = OnlineStats()
        b2.extend([3.5])  # inside a's range: extremes unchanged
        a.merge(b2)
        assert a.min == -1.0 and a.max == 10.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_matches_naive_mean(self, xs):
        s = OnlineStats()
        s.extend(xs)
        assert s.mean == pytest.approx(sum(xs) / len(xs), rel=1e-9, abs=1e-6)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    def test_merge_property(self, xs, ys):
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        a.extend(xs)
        b.extend(ys)
        c.extend(xs + ys)
        a.merge(b)
        assert a.n == c.n
        assert a.mean == pytest.approx(c.mean, rel=1e-6, abs=1e-6)
        assert a.variance == pytest.approx(c.variance, rel=1e-4, abs=1e-4)


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

