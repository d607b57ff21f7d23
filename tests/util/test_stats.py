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

    def test_single_value(self):
        s = OnlineStats()
        s.push(3.5)
        assert s.mean == 3.5
        assert math.isnan(s.variance)  # undefined with one sample

    def test_constant_data_has_zero_spread(self):
        s = OnlineStats()
        s.extend([10.0, 10.0, 10.0])
        assert s.mean == 10.0
        assert s.std == pytest.approx(0.0)

    def test_matches_numpy(self):
        data = [1.0, 2.0, 2.5, -3.0, 8.25, 0.0]
        s = OnlineStats()
        s.extend(data)
        assert s.mean == pytest.approx(np.mean(data))
        assert s.std == pytest.approx(np.std(data, ddof=1))

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_property_matches_numpy(self, data):
        s = OnlineStats()
        s.extend(data)
        assert s.mean == pytest.approx(np.mean(data), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(data, ddof=1), rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=50),
        st.lists(st.floats(-1e6, 1e6) | st.integers(-1000, 1000), max_size=200),
    )
    def test_extend_merges_what_repeated_push_adds(self, head, xs):
        pushed, merged = OnlineStats(), OnlineStats()
        for x in head:
            pushed.push(x)
            merged.push(x)
        for x in xs:
            pushed.push(x)
        merged.extend(xs)
        assert merged.n == pushed.n
        if not pushed.n:
            return
        # Relative to the result, or — where the moments cancel — to what
        # rounding can leave of them at the data's scale and spread.
        data = [*map(float, head), *map(float, xs)]
        scale = max(map(abs, data))
        spread = max(data) - min(data)
        assert math.isclose(merged.mean, pushed.mean, rel_tol=1e-9, abs_tol=1e-12 * scale)
        if pushed.n > 1:
            assert math.isclose(
                merged.variance, pushed.variance, rel_tol=1e-9, abs_tol=1e-12 * scale * spread
            )


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

    def test_empty_stats_are_nan(self):
        w = SlidingWindow(4)
        assert math.isnan(w.mean)
        assert math.isnan(w.median)

    @given(
        st.integers(1, 40),
        st.lists(finite_floats | st.integers(-5, 5), max_size=60),
        st.lists(finite_floats | st.integers(-5, 5), max_size=100),
    )
    def test_extend_is_repeated_push(self, capacity, head, xs):
        pushed, extended = SlidingWindow(capacity), SlidingWindow(capacity)
        for x in head:
            pushed.push(x)
            extended.push(x)
        for x in xs:
            pushed.push(x)
        extended.extend(xs)
        assert extended.values() == pushed.values()
        assert all(type(v) is float for v in extended.values())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_push_out_returns_what_it_displaced(self):
        w = SlidingWindow(2)
        assert w.push_out(1.0) == 0.0
        assert w.push_out(2.0) == 0.0
        assert w.push_out(3.0) == 1.0
        assert w.values() == [2.0, 3.0]

    def test_keep_last_forgets_the_oldest(self):
        w = SlidingWindow(5)
        w.extend([1.0, 2.0, 3.0, 4.0])
        w.keep_last(2)
        assert w.values() == [3.0, 4.0] and not w.full
        w.keep_last(3)  # keeping more than it holds changes nothing
        assert w.values() == [3.0, 4.0]
