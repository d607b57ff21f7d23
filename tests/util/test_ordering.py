"""Tests for the shared sequence-order restoration utility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ordering import SequenceReorderer


class TestSequenceReorderer:
    def test_in_order_passthrough(self):
        r = SequenceReorderer()
        released = []
        for seq in range(5):
            released.extend(r.push(seq, f"v{seq}"))
        assert released == [(i, f"v{i}") for i in range(5)]
        assert len(r) == 0

    def test_out_of_order_burst_releases_in_order(self):
        # A replicated stage can finish a whole burst backwards; nothing may
        # be released until the gap at the front closes, then everything at
        # once, in order.
        r = SequenceReorderer()
        assert list(r.push(3, "d")) == []
        assert list(r.push(1, "b")) == []
        assert list(r.push(2, "c")) == []
        assert len(r) == 3
        assert list(r.push(0, "a")) == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]
        assert len(r) == 0

    def test_interleaved_gaps(self):
        r = SequenceReorderer()
        assert list(r.push(1, 1)) == []
        assert list(r.push(0, 0)) == [(0, 0), (1, 1)]
        assert list(r.push(4, 4)) == []
        assert list(r.push(2, 2)) == [(2, 2)]
        assert list(r.push(3, 3)) == [(3, 3), (4, 4)]

    def test_duplicate_buffered_sequence_rejected(self):
        r = SequenceReorderer()
        list(r.push(2, "x"))
        with pytest.raises(ValueError, match="already buffered"):
            list(r.push(2, "y"))

    def test_already_released_sequence_rejected(self):
        r = SequenceReorderer()
        list(r.push(0, "a"))  # released immediately
        with pytest.raises(ValueError, match="already released"):
            list(r.push(0, "again"))

    def test_rejection_is_eager_even_unconsumed(self):
        # push validates and buffers before the caller touches the returned
        # iterator — a fire-and-forget duplicate dispatch must still raise.
        r = SequenceReorderer()
        r.push(0, "a")  # ready items deliberately not consumed
        with pytest.raises(ValueError, match="already buffered"):
            r.push(0, "dup")

    def test_rejection_does_not_corrupt_state(self):
        r = SequenceReorderer()
        list(r.push(1, "b"))
        with pytest.raises(ValueError):
            list(r.push(1, "dup"))
        # The original pair survives and releases normally.
        assert list(r.push(0, "a")) == [(0, "a"), (1, "b")]

    def test_custom_start(self):
        r = SequenceReorderer(start=10)
        assert list(r.push(11, "b")) == []
        assert list(r.push(10, "a")) == [(10, "a"), (11, "b")]
        with pytest.raises(ValueError, match="already released"):
            list(r.push(9, "stale"))

    def test_a_gap_holds_the_run_behind_it(self):
        r = SequenceReorderer()
        list(r.push(1, "b"))
        list(r.push(0, "a"))
        assert list(r.push(3, "d")) == []  # gap at 2: stuck
        assert len(r) == 1
        assert list(r.push(2, "c")) == [(2, "c"), (3, "d")]
        assert len(r) == 0

    @settings(max_examples=50, deadline=None)
    @given(order=st.permutations(list(range(12))))
    def test_any_arrival_order_releases_input_order(self, order):
        r = SequenceReorderer()
        out = [seq for s in order for seq, _ in r.push(s, s)]
        assert out == list(range(12))
        assert len(r) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, 11), max_size=5, unique=True),
        data=st.data(),
    )
    def test_ranges_in_any_order_release_input_order(self, cuts, data):
        bounds = [0, *sorted(cuts), 12]
        ranges = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        ranges = data.draw(st.permutations(ranges))
        r = SequenceReorderer()
        out = [seq for rng in ranges for seq, _ in r.push_range(rng[0], rng)]
        assert out == list(range(12))
