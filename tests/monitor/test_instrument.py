"""Tests for stage instrumentation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitor.instrument import PipelineInstrumentation, ServiceWatch, StageMetrics


class TestStageMetrics:
    def test_service_recording(self):
        m = StageMetrics(0)
        m.record_service(0.5, effective_speed=2.0)
        m.record_service(0.7, effective_speed=2.0)
        snap = m.snapshot()
        assert snap.items_processed == 2
        assert snap.service_time == pytest.approx(0.6)
        # work = service x speed
        assert snap.work_estimate == pytest.approx(1.2)

    def test_window_forgets_old_behaviour(self):
        m = StageMetrics(0, window=4)
        for _ in range(10):
            m.record_service(1.0, 1.0)
        for _ in range(4):
            m.record_service(5.0, 1.0)
        assert m.snapshot().service_time == pytest.approx(5.0)

    def test_transfer_and_queue(self):
        m = StageMetrics(1)
        m.record_transfer(0.1)
        m.record_queue_length(3)
        snap = m.snapshot()
        assert snap.transfer_time == pytest.approx(0.1)
        assert snap.queue_length == pytest.approx(3.0)

    def test_empty_snapshot(self):
        snap = StageMetrics(0).snapshot()
        assert snap.items_processed == 0
        assert math.isnan(snap.service_time)
        assert snap.transfer_time == 0.0

    def test_cv_of_constant_service_is_zero(self):
        m = StageMetrics(0)
        for _ in range(5):
            m.record_service(0.3, 1.0)
        assert m.snapshot().service_cv == pytest.approx(0.0, abs=1e-9)


class TestPipelineInstrumentation:
    def test_requires_stages(self):
        with pytest.raises(ValueError):
            PipelineInstrumentation(0)

    def test_completion_accounting(self):
        pi = PipelineInstrumentation(2)
        for t in (1.0, 2.0, 3.0):
            pi.record_completion(t)
        assert pi.items_completed == 3

    def test_recent_throughput_windows(self):
        pi = PipelineInstrumentation(1)
        for t in (1.0, 2.0, 9.0, 10.0):
            pi.record_completion(t)
        assert pi.recent_throughput(now=10.0, horizon=2.0) == pytest.approx(1.0)

    def test_recent_throughput_nan_when_no_data(self):
        pi = PipelineInstrumentation(1)
        assert math.isnan(pi.recent_throughput(now=10.0, horizon=2.0))

    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), max_size=40),
        now=st.sampled_from([0.0, 1.0, 2.5, 7.0, 40.0]),
        horizon=st.sampled_from([0.25, 1.0, 2.0, 10.0]),
    )
    def test_recent_throughput_counts_what_a_scan_counts(self, gaps, now, horizon):
        # Monotone times with ties and exact window edges: the bisection
        # counts exactly the completions at or after now - horizon.
        pi = PipelineInstrumentation(1)
        t = 0.0
        for gap in gaps:
            t += gap
            pi.record_completion(t)
        brute = sum(1 for c in pi.completion_times if c >= now - horizon)
        got = pi.recent_throughput(now=now, horizon=horizon)
        if brute:
            assert got == brute / horizon
        else:
            assert math.isnan(got)

    def test_recent_throughput_invalid_horizon(self):
        pi = PipelineInstrumentation(1)
        with pytest.raises(ValueError):
            pi.recent_throughput(now=1.0, horizon=0.0)

    def test_bottleneck_detection(self):
        pi = PipelineInstrumentation(3)
        pi.stages[0].record_service(0.1, 1.0)
        pi.stages[1].record_service(0.9, 1.0)
        pi.stages[2].record_service(0.2, 1.0)
        bn = pi.bottleneck()
        assert bn is not None
        assert bn.stage_index == 1

    def test_bottleneck_none_before_data(self):
        assert PipelineInstrumentation(2).bottleneck() is None


class TestPayloadByteAccounting:
    def test_snapshot_defaults_to_zero_bytes(self):
        m = StageMetrics(0)
        m.record_service(0.1, 1.0)
        snap = m.snapshot()
        assert snap.bytes_in == 0.0 and snap.bytes_out == 0.0

    def test_window_means_and_totals(self):
        m = StageMetrics(0)
        for n in (100, 300):
            m.record_bytes_in(n)
            m.record_bytes_out(2 * n)
        snap = m.snapshot()
        assert snap.bytes_in == pytest.approx(200.0)
        assert snap.bytes_out == pytest.approx(400.0)
        assert m.total_bytes_in == 400 and m.total_bytes_out == 800

    def test_log2_histograms(self):
        m = StageMetrics(0)
        for n in (1, 1, 3, 1024, 1_000_000):
            m.record_bytes_in(n)
        # bucket = bit_length: 1 -> 1, 3 -> 2, 1024 -> 11, 1e6 -> 20
        assert m.bytes_in_hist == {1: 2, 2: 1, 11: 1, 20: 1}
        assert m.bytes_out_hist == {}

    def test_negative_sizes_clamped(self):
        m = StageMetrics(0)
        m.record_bytes_out(-5)
        assert m.total_bytes_out == 0
        assert m.bytes_out_hist == {0: 1}


def watched(n_stages=2, window=32, min_samples=2, ratio=1.1):
    stages = [StageMetrics(i, window=window) for i in range(n_stages)]
    wakes = []
    watch = ServiceWatch(stages, lambda: wakes.append(1), min_samples=min_samples, ratio=ratio)
    return stages, watch, wakes


def feed(stage, seconds, n=1):
    for _ in range(n):
        stage.record_service(seconds, 1.0)


class TestServiceWatch:
    def test_unwatched_by_default_and_after_close(self):
        assert StageMetrics(0)._watch is None
        stages, watch, _ = watched()
        assert all(s._watch is not None for s in stages)
        watch.close()
        assert all(s._watch is None for s in stages)

    def test_evidence_fires_when_every_stage_has_min_samples(self):
        (a, b), watch, wakes = watched()
        feed(a, 0.002, 5)
        feed(b, 0.002, 1)
        assert not wakes and watch.take() is None
        feed(b, 0.002, 1)
        assert wakes and watch.take() == ("evidence",)
        assert watch.take() is None
        feed(a, 0.002, 5)  # fired stages stay silent until armed
        assert len(wakes) == 1

    def test_idle_rearm_repeats_the_evidence(self):
        # The controller took the firing but could not decide (backlog 0):
        # arm() without centres makes the next sample announce it again.
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 2)
        assert watch.take() == ("evidence",)
        watch.arm()
        feed(a, 0.002)
        assert watch.take() == ("evidence",)

    def test_in_band_samples_never_wake(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 2)
        watch.take()
        watch.arm([0.002])
        for k in range(200):
            feed(a, 0.002 * (1.0 + 0.05 * (-1) ** k))
        assert len(wakes) == 1 and watch.take() is None

    def test_step_wakes_after_min_samples_and_cuts_the_window(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([a.snapshot().service_time])
        feed(a, 0.008)
        assert watch.take() is None  # one far sample may be an outlier
        a.record_service(0.008, 0.5)
        kind, stage, before, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 0)
        assert before == pytest.approx(0.002) and after == pytest.approx(0.008)
        # The decision reads the new level, not a 30:2 mixture with the old.
        snap = a.snapshot()
        assert snap.service_time == pytest.approx(0.008)
        assert snap.work_estimate == pytest.approx(0.006)  # (0.008 + 0.004) / 2
        assert snap.items_processed == 42

    def test_single_outlier_is_reported_as_it_is(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([0.002])
        feed(a, 0.040)  # drags the window mean to 3.2 ms, alone
        assert watch.take() is None  # ... and might be the start of a step
        feed(a, 0.002)
        # It was not: the mean did leave the band, and is reported whole.
        assert watch.take() == ("shift", 0, 0.002, pytest.approx(0.0031875), False)
        assert len(a._service_win) == 32  # nothing was cut

    def test_drift_of_a_full_window_wakes(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([0.002])
        x = 0.002
        while watch.fired is None and x < 0.004:
            x *= 1.01
            feed(a, x)
        kind, _, before, after, _ = watch.take()
        assert kind == "shift" and after > 1.1 * before
        assert after == pytest.approx(a.snapshot().service_time)

    def test_noisy_stage_is_not_mistaken_for_a_step(self):
        rng = np.random.default_rng(7)
        (a,), watch, wakes = watched(1)
        samples = 0.002 * rng.lognormal(0.0, 0.5, size=2000)
        for x in samples[:40]:
            feed(a, x)
        watch.take()
        watch.arm([a.snapshot().service_time])
        cuts = 0
        for x in samples[40:]:
            feed(a, x)
            if watch.take() is not None:
                watch.arm([a.snapshot().service_time])
            cuts += len(a._service_win) < 24
        # Cut back to a few samples at most a handful of times in 2,000.
        assert cuts <= 32

    def test_stage_far_below_the_period_is_unheard(self):
        (fast, slow), watch, wakes = watched()
        feed(fast, 1e-6, 40)
        feed(slow, 0.005, 40)
        watch.take()
        watch.arm([1e-6, 0.005], replicas=[1, 2])
        feed(fast, 5e-6, 40)  # five times slower, still nowhere near 2.5 ms
        feed(fast, 1e-7, 40)
        assert watch.take() is None
        feed(fast, 0.003, 32)  # now it would set the period
        kind, stage, _, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 0)
        assert after == pytest.approx(0.003)  # cut back to the new level

    def test_bottleneck_speeding_up_wakes(self):
        (fast, slow), watch, wakes = watched()
        feed(fast, 1e-6, 40)
        feed(slow, 0.005, 40)
        watch.take()
        watch.arm([1e-6, 0.005], replicas=[1, 1])
        feed(slow, 0.002, 4)
        assert watch.take() is None  # the window mean is still within 10 %
        feed(slow, 0.002)
        kind, stage, _, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 1) and after == pytest.approx(0.002)

    def test_rolling_mean_is_the_window_mean(self):
        rng = np.random.default_rng(3)
        (a,), watch, _ = watched(1, window=8)
        feed(a, 0.002, 2)
        watch.take()
        watch.arm([0.002])
        watch.stages[0].limits = (0.0, math.inf)  # never recalibrate again
        for x in rng.uniform(0.001, 0.01, size=500):
            feed(a, x)
            sw = watch.stages[0]
            assert sw.total / len(a._service_win) == pytest.approx(a._service_win.mean, rel=1e-9)
