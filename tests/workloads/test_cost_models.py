"""Tests for the log-normal work model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.cost_models import LogNormalWork


# The one stochastic cost model, across the CVs the experiments sweep (E8
# runs 0.1 to 2.0): each parameterisation must keep its declared mean.
MODELS = [
    lambda m: LogNormalWork(m, cv=0.1),
    lambda m: LogNormalWork(m, cv=0.25),
    lambda m: LogNormalWork(m, cv=0.5),
    lambda m: LogNormalWork(m, cv=1.0),
    lambda m: LogNormalWork(m, cv=2.0),
]


class TestMeanConsistency:
    @pytest.mark.parametrize("make", MODELS)
    def test_sample_mean_matches_declared_mean(self, make):
        model = make(0.5)
        rng = np.random.default_rng(0)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(model.mean, rel=0.08)

    @pytest.mark.parametrize("make", MODELS)
    def test_samples_positive(self, make):
        model = make(1.0)
        rng = np.random.default_rng(1)
        assert all(model.sample(rng) > 0 for _ in range(1000))

    @pytest.mark.parametrize("make", MODELS)
    def test_deterministic_given_seed(self, make):
        a = [make(1.0).sample(np.random.default_rng(7)) for _ in range(5)]
        b = [make(1.0).sample(np.random.default_rng(7)) for _ in range(5)]
        assert a == b


class TestLogNormal:
    def test_cv_controls_spread(self):
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        tight = [LogNormalWork(1.0, cv=0.1).sample(rng1) for _ in range(5000)]
        wide = [LogNormalWork(1.0, cv=2.0).sample(rng2) for _ in range(5000)]
        assert np.std(tight) < np.std(wide)

    @settings(max_examples=20, deadline=None)
    @given(cv=st.floats(min_value=0.05, max_value=2.0))
    def test_property_mean_invariant_under_cv(self, cv):
        model = LogNormalWork(0.3, cv=cv)
        rng = np.random.default_rng(11)
        samples = [model.sample(rng) for _ in range(30_000)]
        assert np.mean(samples) == pytest.approx(0.3, rel=0.12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LogNormalWork(0.0, 0.5)
        with pytest.raises(ValueError):
            LogNormalWork(1.0, 0.0)

    def test_median_is_below_the_mean(self):
        # A log-normal with mean m and CV c has median m / sqrt(1 + c^2):
        # the skew the CV knob adds sits in the tail, not the body.
        model = LogNormalWork(1.0, cv=1.0)
        rng = np.random.default_rng(3)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert np.median(samples) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)

    def test_parameters_read_back(self):
        model = LogNormalWork(0.25, cv=1.5)
        assert model.mean == 0.25
        assert model.cv == 1.5
        assert repr(model) == "LogNormalWork(mean=0.25, cv=1.5)"
