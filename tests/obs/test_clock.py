"""Tests for the remote-clock offset/drift estimator."""

import math

import pytest

from repro.obs.clock import MIN_DRIFT_SAMPLES, ClockFit, ClockSync


def _quad(offset, *, t0=100.0, out_delay=0.002, back_delay=0.002, hold=0.01):
    """Build an NTP quadruple for a remote clock running ``offset`` ahead."""
    t1 = t0 + out_delay + offset
    t2 = t1 + hold
    t3 = (t2 - offset) + back_delay
    return t0, t1, t2, t3


class TestClockFit:
    def test_offset_and_mapping(self):
        fit = ClockFit(a=1.5, b=0.0, err=0.001, n=4)
        assert fit.offset_at(10.0) == 1.5
        assert 11.5 - fit.offset_at(11.5) == 10.0

    def test_drift_term(self):
        fit = ClockFit(a=0.0, b=1e-3, err=0.001, n=10)
        assert fit.offset_at(100.0) == pytest.approx(0.1)
        assert 100.0 - fit.offset_at(100.0) == pytest.approx(99.9)


class TestClockSync:
    def test_identity_before_any_sample(self):
        cs = ClockSync()
        assert 42.0 - cs.offset(42.0) == 42.0
        assert cs.offset() == 0.0
        assert cs.error_bound() == math.inf
        assert cs.n_samples == 0

    def test_symmetric_sample_recovers_offset_exactly(self):
        cs = ClockSync()
        rtt = cs.observe(*_quad(offset=3.0))
        assert rtt == pytest.approx(0.004)
        # Symmetric delays: the sample is exact, error bound is rtt/2.
        assert cs.offset() == pytest.approx(3.0, abs=1e-9)
        assert cs.error_bound() == pytest.approx(rtt / 2)
        assert 103.0 - cs.offset(103.0) == pytest.approx(100.0, abs=1e-9)

    def test_asymmetric_delay_error_within_rtt_half(self):
        cs = ClockSync()
        # All delay on the outbound leg: worst-case asymmetry.
        cs.observe(*_quad(offset=1.0, out_delay=0.010, back_delay=0.0))
        rtt = 0.010
        assert abs(cs.offset() - 1.0) <= rtt / 2 + 1e-12

    def test_negative_rtt_sample_dropped(self):
        cs = ClockSync()
        cs.observe(*_quad(offset=0.5))
        n = cs.n_samples
        # t2 < t1 (remote clock stepped backwards mid-hold): dropped.
        cs.observe(10.0, 11.0, 10.5, 12.0)
        assert cs.n_samples == n

    def test_best_bounded_sample_wins_before_drift_activates(self):
        cs = ClockSync()
        cs.observe(*_quad(offset=2.0, out_delay=0.050, back_delay=0.0))  # sloppy
        cs.observe(*_quad(offset=2.0, out_delay=0.001, back_delay=0.001))  # tight
        fit = cs.fit()
        assert fit.b == 0.0  # too few samples for drift
        assert fit.offset_at(0.0) == pytest.approx(2.0, abs=1e-9)
        assert fit.err == pytest.approx(0.001)

    def test_drift_fit_recovers_slope_and_intercept(self):
        cs = ClockSync()
        a_true, b_true = 0.25, 2e-4  # 200µs/s drift
        for i in range(20):
            t0 = 50.0 + i * 0.2  # spans 3.8s of remote time (> MIN_DRIFT_SPAN)
            offset = a_true + b_true * t0
            cs.observe(*_quad(offset=offset, t0=t0))
        fit = cs.fit()
        assert fit.n == 20
        assert fit.b == pytest.approx(b_true, rel=0.05)
        assert fit.offset_at(55.0) == pytest.approx(a_true + b_true * 55.0, abs=1e-4)

    def test_short_span_suppresses_drift(self):
        cs = ClockSync()
        for i in range(MIN_DRIFT_SAMPLES + 4):
            cs.observe(*_quad(offset=1.0, t0=10.0 + i * 0.01))  # 0.12s span
        assert cs.fit().b == 0.0

    def test_sliding_window_bounded(self):
        cs = ClockSync(window=8)
        for i in range(50):
            cs.observe(*_quad(offset=0.1, t0=float(i)))
        assert cs.n_samples == 8

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            ClockSync(window=1)
