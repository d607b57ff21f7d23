"""Size-stratified link estimation: recovery, fallbacks, clamps."""

import numpy as np
import pytest

from repro.transport import SizeStratifiedLinkEstimator
from repro.transport.linkfit import _MAX_BANDWIDTH


def _feed(est, latency, bandwidth, sizes, *, noise=0.0, seed=0):
    # One sample spans two one-way legs: the task out and the result back.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        s = float(rng.choice(sizes))
        t = 2 * latency + s / bandwidth + (rng.normal(0, noise) if noise else 0)
        est.observe(s, max(0.0, t))


def test_recovers_latency_and_bandwidth():
    est = SizeStratifiedLinkEstimator()
    _feed(est, latency=2e-3, bandwidth=5e7, sizes=[1e3, 1e5, 1e6, 4e6], noise=1e-4)
    model = est.fit()
    assert model.fitted and model.n_samples == 200
    assert 1.5e-3 < model.latency_s < 2.5e-3
    assert 3e7 < model.bandwidth_Bps < 8e7
    # The fitted model prices a transfer affinely.
    assert model.seconds(1e6) == pytest.approx(model.latency_s + 1e6 / model.bandwidth_Bps)


def test_no_samples_reports_default():
    est = SizeStratifiedLinkEstimator()
    model = est.fit()
    assert not model.fitted and model.n_samples == 0
    assert model.bandwidth_Bps == 1e8 and model.latency_s == 0.0


def test_single_size_falls_back_to_latency_only():
    # Without size spread the slope is unidentifiable: keep the default
    # bandwidth and report the mean overhead as (round-tripped) latency.
    est = SizeStratifiedLinkEstimator()
    for _ in range(50):
        est.observe(1000.0, 6e-3)
    model = est.fit()
    assert not model.fitted
    assert model.bandwidth_Bps == 1e8
    assert model.latency_s == pytest.approx(3e-3, rel=0.05)


def test_latency_dominated_link_clamps_bandwidth_high():
    # Shared-memory descriptors: transfer time does not grow with size.
    est = SizeStratifiedLinkEstimator()
    _feed(est, latency=1e-3, bandwidth=1e15, sizes=[1e3, 1e6, 8e6])
    model = est.fit()
    assert model.fitted
    assert model.bandwidth_Bps == _MAX_BANDWIDTH
    assert model.latency_s == pytest.approx(1e-3, rel=0.1)


def test_negative_or_nan_samples_are_ignored():
    est = SizeStratifiedLinkEstimator()
    est.observe(100.0, -1.0)
    est.observe(100.0, float("nan"))
    assert est.fit().n_samples == 0
