"""Tests for validation helpers."""

import pytest

from repro.util.validation import check_non_negative, check_positive, check_probability


class TestCheckers:
    def test_positive(self):
        assert check_positive(0.5, "x") == 0.5
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")
        with pytest.raises(ValueError):
            check_positive(-1, "x")

    def test_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.001, "x")

    def test_probability(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")
        with pytest.raises(ValueError):
            check_probability(-0.01, "p")

    def test_nan_rejected_by_positive(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")
