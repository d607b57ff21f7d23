"""Tests for online/windowed statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import OnlineStats, SlidingWindow

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.std)
        assert math.isnan(s.min)

    def test_single_value(self):
        s = OnlineStats()
        s.push(3.5)
        assert s.mean == 3.5
        assert s.min == s.max == 3.5
        assert math.isnan(s.variance)  # undefined with one sample

    def test_matches_numpy(self):
        data = [1.0, 2.0, 2.5, -3.0, 8.25, 0.0]
        s = OnlineStats()
        s.extend(data)
        assert s.mean == pytest.approx(np.mean(data))
        assert s.std == pytest.approx(np.std(data, ddof=1))
        assert s.min == min(data)
        assert s.max == max(data)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_property_matches_numpy(self, data):
        s = OnlineStats()
        s.extend(data)
        assert s.mean == pytest.approx(np.mean(data), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(data, ddof=1), rel=1e-6, abs=1e-6)

    def test_cv(self):
        s = OnlineStats()
        s.extend([10.0, 10.0, 10.0])
        assert s.cv == pytest.approx(0.0)


class TestSlidingWindow:
    def test_eviction(self):
        w = SlidingWindow(3)
        w.extend([1, 2, 3, 4])
        assert w.values() == [2.0, 3.0, 4.0]
        assert w.full

    def test_stats(self):
        w = SlidingWindow(5)
        w.extend([2.0, 4.0, 6.0])
        assert w.mean == pytest.approx(4.0)
        assert w.median == pytest.approx(4.0)
        assert w.last == 6.0
        assert w.percentile(50) == pytest.approx(4.0)

    def test_empty_stats_are_nan(self):
        w = SlidingWindow(4)
        assert math.isnan(w.mean)
        assert math.isnan(w.median)
        assert math.isnan(w.last)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_percentile_range_check(self):
        w = SlidingWindow(4)
        w.push(1.0)
        with pytest.raises(ValueError):
            w.percentile(101)

